package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/series"
)

// TestRatePolicyContract is the §4.2 contract as one table over the three
// estimate→retain loops that ship: the closed-loop Controller, the
// a-posteriori Archiver and the serving IngestEstimator, each holding a
// core.RatePolicy. Each row is one clause; each cell drives one loop
// through its own entry point (Controller.Step on a one-device scenario,
// Archiver.Ingest and Flush, IngestEstimator.Observe) and checks what that
// loop shows of the clause. A loop that cannot express a clause says why in
// its cell. The contract's remaining clause, that rejected points never
// feed the estimator, is internal/api's TestIngestOutOfOrderAccounting: a
// point reaches the hook only once the store has accepted it, and none of
// these entry points rejects one.
func TestRatePolicyContract(t *testing.T) {
	type cell struct {
		check  func(t *testing.T)
		cannot string // why the loop cannot express the row
	}
	for _, row := range []struct {
		clause                     string
		controller, archiver, hook cell
	}{
		{
			clause: "a clean signal sets retention from the estimate",
			controller: cell{check: func(t *testing.T) {
				// Rounds are disjoint (turnover 1): retention is every round's
				// estimate, and the granted rate is the poll rule applied to
				// that same estimate, so it falls or holds and never rises.
				w := controllerWindows(t, winClean, winClean, winClean, winClean)
				for i := 1; i < len(w); i++ {
					if w[i].aliased || !(w[i].retention > 0) {
						t.Fatalf("round %d: aliased %v, retention %v: want a clean estimate retained", i, w[i].aliased, w[i].retention)
					}
					if want := min(clamp(series.Headroom*w[i].retention, minRate, maxRate), w[i-1].rate); w[i].rate != want {
						t.Fatalf("round %d: poll rate %v → %v, want %v from the retained estimate %v", i, w[i-1].rate, w[i].rate, want, w[i].retention)
					}
				}
				if !(w[len(w)-1].rate < w[0].rate) {
					t.Fatalf("poll rate %v → %v: an oversampled device must come down", w[0].rate, w[len(w)-1].rate)
				}
			}},
			archiver: cell{check: func(t *testing.T) {
				// Blocks are disjoint: each clean block's estimate is retained
				// at once, and the block itself is stored downsampled.
				w := archiverWindows(t, winClean, winClean)
				for i := 1; i < len(w); i++ {
					if w[i].raw || w[i].retention != w[i].estimate {
						t.Fatalf("block %d: raw %v, retention %v; want a downsampled block and its estimate %v", i, w[i].raw, w[i].retention, w[i].estimate)
					}
				}
				if truth := 2 * contractTone; w[1].retention < truth/2 || w[1].retention > 4*truth {
					t.Fatalf("retained %v Hz, want within a small factor of the tone's %v", w[1].retention, truth)
				}
			}},
			hook: cell{check: func(t *testing.T) {
				// Refreshes overlap: the first clean estimate shares most of
				// its window with nothing trusted yet, so retention follows
				// from the second.
				_, w := hookRefreshes(t, monitor.IngestConfig{}, time.Second, seg{winClean, 600, 0})
				if len(w) < 3 || w[0].retention != 0 {
					t.Fatalf("%d refreshes, the first retained %v: want nothing retained from a first estimate", len(w), w[0].retention)
				}
				for i, r := range w[1:] {
					if r.adv.Aliased || !(r.retention > 0) || r.retention != r.adv.NyquistRate {
						t.Fatalf("refresh %d: aliased %v, retention %v, estimate %v: want the estimate retained", i+1, r.adv.Aliased, r.retention, r.adv.NyquistRate)
					}
				}
			}},
		},
		{
			clause: "a lower estimate lowers retention only after a turnover",
			controller: cell{check: func(t *testing.T) {
				// A turnover is one round: the first lower estimate is the
				// evidence.
				w := controllerWindows(t, winWide, winClean)
				if !(w[2].retention < w[1].retention) {
					t.Fatalf("retention %v → %v: want it lowered by the first narrower round", w[1].retention, w[2].retention)
				}
			}},
			archiver: cell{check: func(t *testing.T) {
				w := archiverWindows(t, winWide, winClean)
				if w[1].retention != w[1].estimate || w[2].retention != w[2].estimate || !(w[2].retention < w[1].retention) {
					t.Fatalf("retention %v → %v, estimates %v → %v: want the narrower block's lower estimate retained at once", w[1].retention, w[2].retention, w[1].estimate, w[2].estimate)
				}
			}},
			hook: cell{check: func(t *testing.T) {
				// WindowSamples/EmitEvery refreshes replace every sample of
				// the window: retention lowers on the turnover-th lower
				// estimate in a row, to the highest of them.
				e, w := hookRefreshes(t, monitor.IngestConfig{}, time.Second, seg{winWide, 512, 0}, seg{winClean, 768, 0})
				turnover := e.Config().WindowSamples / e.Config().EmitEvery
				j := 1
				for j < len(w) && w[j].retention >= w[j-1].retention {
					j++
				}
				if j == len(w) || j < turnover {
					t.Fatalf("retention never lowered over %d refreshes: the scenario tests nothing", len(w))
				}
				held, peak := w[j-turnover].retention, 0.0
				for i := j - turnover + 1; i <= j; i++ {
					if r := w[i].adv.NyquistRate; !(r < held) || w[i].adv.Aliased {
						t.Fatalf("refresh %d lowered retention after refresh %d estimated %v against the held %v", j, i, r, held)
					}
					peak = max(peak, w[i].adv.NyquistRate)
					if i < j && (w[i].retention != held || w[i].adv.HeldRefreshes != i-(j-turnover)) {
						t.Fatalf("refresh %d: retention %v, %d held refreshes; want %v held, counting", i, w[i].retention, w[i].adv.HeldRefreshes, held)
					}
				}
				if w[j].retention != peak {
					t.Fatalf("retention lowered to %v, want the highest estimate of the turnover, %v", w[j].retention, peak)
				}
			}},
		},
		{
			clause: "one aliased window among clean ones raises nothing",
			controller: cell{check: func(t *testing.T) {
				w := controllerWindows(t, winClean, winClean, winAliased, winClean)
				if !w[3].aliased || w[3].rate != w[2].rate || w[3].retention != w[2].retention {
					t.Fatalf("aliased round: aliased %v, poll rate %v → %v, retention %v → %v: want both held", w[3].aliased, w[2].rate, w[3].rate, w[2].retention, w[3].retention)
				}
			}},
			archiver: cell{check: func(t *testing.T) {
				// The block is kept raw, its own action on any aliased block.
				w := archiverWindows(t, winClean, winAliased, winClean)
				if !w[2].aliased || !w[2].raw || w[2].retention != w[1].retention {
					t.Fatalf("aliased block: counted %v, raw %v, retention %v → %v: want it kept raw and retention held", w[2].aliased, w[2].raw, w[1].retention, w[2].retention)
				}
			}},
			hook: cell{check: func(t *testing.T) {
				// Overlapping refreshes see any aliased stretch in several
				// windows, so one aliased window is one disjoint refresh
				// (EmitEvery = WindowSamples).
				e, w := hookRefreshes(t, monitor.IngestConfig{WindowSamples: 64, EmitEvery: 64}, time.Second,
					seg{winClean, 256, 0}, seg{winAliased, 64, 0}, seg{winClean, 192, 0})
				n := 0
				for i, r := range w {
					if !r.adv.Aliased {
						continue
					}
					n++
					if r.adv.AliasStreak >= core.Persistence || r.retention != w[i-1].retention ||
						r.held != w[i-1].held || r.adv.HeldRefreshes != w[i-1].adv.HeldRefreshes ||
						r.adv.SuggestedInterval != w[i-1].adv.SuggestedInterval {
						t.Fatalf("refresh %d: streak %d, retention %v → %v, held refreshes %d → %d, advice %v → %v: want a blip that moves nothing",
							i, r.adv.AliasStreak, w[i-1].retention, r.retention, w[i-1].held, r.held, w[i-1].adv.SuggestedInterval, r.adv.SuggestedInterval)
					}
				}
				if n != 1 || e.AliasedRefreshes() != 1 {
					t.Fatalf("%d aliased refreshes (%d counted), want exactly one", n, e.AliasedRefreshes())
				}
			}},
		},
		{
			clause: "aliasing sustained for core.Persistence windows raises",
			controller: cell{check: func(t *testing.T) {
				w := controllerWindows(t, winClean, winClean, winAliased, winAliased)
				if !w[3].aliased || !w[4].aliased || w[3].rate != w[2].rate || w[4].rate != clamp(2*w[3].rate, minRate, maxRate) {
					t.Fatalf("aliased rounds %v %v, poll rate %v → %v → %v: want it held, then doubled", w[3].aliased, w[4].aliased, w[2].rate, w[3].rate, w[4].rate)
				}
			}},
			archiver: cell{check: func(t *testing.T) {
				// Its raise is keeping the polled rate: every block raw.
				w := archiverWindows(t, winClean, winAliased, winAliased, winAliased)
				for i := 2; i < len(w); i++ {
					if !w[i].aliased || !w[i].raw {
						t.Fatalf("block %d: counted aliased %v, raw %v: want every aliased block kept raw", i, w[i].aliased, w[i].raw)
					}
				}
			}},
			hook: cell{check: func(t *testing.T) {
				_, w := hookRefreshes(t, monitor.IngestConfig{}, time.Second, seg{winClean, 512, 0}, seg{winAliased, 512, 0})
				last := w[len(w)-1].adv
				if !last.Aliased || last.AliasStreak < core.Persistence || last.SuggestedInterval != time.Second/2 {
					t.Fatalf("advice %+v: want a persistent alias streak and half the poll interval suggested", last)
				}
			}},
		},
		{
			clause: "no aliased window ever retunes retention",
			controller: cell{check: func(t *testing.T) {
				w := controllerWindows(t, winClean, winAliased, winClean, winAliased, winAliased, winAliased, winClean, winAliased)
				checkAliasedHold(t, w, 5)
			}},
			archiver: cell{check: func(t *testing.T) {
				w := archiverWindows(t, winClean, winAliased, winClean, winAliased, winAliased, winClean, winAliased)
				checkAliasedHold(t, w, 4)
			}},
			hook: cell{check: func(t *testing.T) {
				_, w := hookRefreshes(t, monitor.IngestConfig{}, time.Second,
					seg{winClean, 512, 0}, seg{winAliased, 100, 0}, seg{winClean, 400, 0}, seg{winAliased, 300, 0}, seg{winClean, 300, 0})
				checkAliasedHold(t, w, 40)
				for i := 1; i < len(w); i++ {
					if w[i].adv.Aliased && (w[i].retunes != w[i-1].retunes || w[i].held != w[i-1].held || w[i].adv.HeldRefreshes != w[i-1].adv.HeldRefreshes) {
						t.Fatalf("aliased refresh %d moved the hold: retunes %d → %d, held refreshes %d → %d", i, w[i-1].retunes, w[i].retunes, w[i-1].held, w[i].held)
					}
				}
			}},
		},
		{
			clause: "a clean estimate never advises a faster poll",
			controller: cell{check: func(t *testing.T) {
				w := controllerWindows(t, winFast, winFast, winFast)
				for i := 1; i < len(w); i++ {
					if w[i].rate > w[i-1].rate {
						t.Fatalf("round %d: poll rate %v → %v on a clean estimate", i, w[i-1].rate, w[i].rate)
					}
				}
			}},
			archiver: cell{cannot: "the Archiver advises no poll rate: it stores each block as polled or downsampled"},
			hook: cell{check: func(t *testing.T) {
				_, w := hookRefreshes(t, monitor.IngestConfig{}, time.Second, seg{winFast, 1024, 0})
				for i, r := range w {
					if r.adv.Aliased || r.adv.SuggestedInterval < r.adv.Interval {
						t.Fatalf("refresh %d: aliased %v, advised %v at a %v poll: want a clean estimate that never speeds it up",
							i, r.adv.Aliased, r.adv.SuggestedInterval, r.adv.Interval)
					}
				}
			}},
		},
		{
			clause:     "held advice is the locked interval and doubled advice exactly half of it",
			controller: cell{cannot: "it moves rates, not intervals: the rows above check its held and doubled rates bit for bit"},
			archiver:   cell{cannot: "the Archiver advises no poll rate"},
			hook: cell{check: func(t *testing.T) {
				// A minute, and 99 s, which a rate round trip through float64
				// seconds (1e9 / (1/99)) drifts a nanosecond off.
				for _, every := range []time.Duration{time.Minute, 99 * time.Second} {
					_, w := hookRefreshes(t, monitor.IngestConfig{}, every, seg{winClean, 300, 0}, seg{winAliased, 512, 0})
					var blips, raises int
					for i, r := range w {
						want := every // before any estimate is trusted
						switch {
						case r.adv.AliasStreak >= core.Persistence:
							want, raises = every/2, raises+1
						case r.adv.Aliased:
							want, blips = w[i-1].adv.SuggestedInterval, blips+1
						case i > 0:
							continue // a clean estimate's own advice
						}
						if r.adv.Interval != every || r.adv.SuggestedInterval != want {
							t.Fatalf("refresh %d (streak %d): advised %v at a locked %v, want %v", i, r.adv.AliasStreak, r.adv.SuggestedInterval, r.adv.Interval, want)
						}
					}
					if blips != 1 || raises == 0 {
						t.Fatalf("%v: %d one-window blips and %d raises: the scenario tests nothing", every, blips, raises)
					}
				}
			}},
		},
		{
			clause:     "advice waits for an estimate trusted since the last raise or re-probe",
			controller: cell{cannot: "its rounds are disjoint (turnover 1): every clean round is trusted, and its rule reads that round's estimate"},
			archiver:   cell{cannot: "the Archiver advises no poll rate"},
			hook: cell{check: func(t *testing.T) {
				// The first clean refresh after a persistent aliased run on the
				// same grid, and the first on a grid the series is re-probed
				// onto (a client that sped up past the raise, or redeployed
				// faster), is not yet trusted: it holds the locked interval,
				// not the longer one the clean run before it advised.
				// Half-overlapping windows keep the noise's onset out of the
				// last trusted estimate before the run.
				for _, sc := range []struct {
					name     string
					cfg      monitor.IngestConfig
					reprobes int64
					segs     []seg
				}{
					{"same grid", monitor.IngestConfig{WindowSamples: 128, EmitEvery: 64}, 0, []seg{{winClean, 512, 0}, {winAliased, 512, 0}, {winClean, 512, 0}}},
					{"raised, re-probed", monitor.IngestConfig{}, 1, []seg{{winClean, 512, 0}, {winAliased, 512, 0}, {winClean, 1024, time.Second / 4}}},
					{"re-probed", monitor.IngestConfig{}, 1, []seg{{winClean, 512, 0}, {winClean, 1024, time.Second / 4}}},
				} {
					e, w := hookRefreshes(t, sc.cfg, time.Second, sc.segs...)
					var prior time.Duration // the longest advice before the raise or re-probe
					moved, after := -1, -1
					for i, r := range w {
						if moved < 0 && (r.adv.AliasStreak >= core.Persistence || r.adv.Interval != time.Second) {
							moved = i
						}
						if moved < 0 {
							prior = max(prior, r.adv.SuggestedInterval)
						} else if !r.adv.Aliased && (r.adv.Interval != time.Second) == (sc.reprobes > 0) {
							after = i
							break
						}
					}
					if after < 0 || !(prior > time.Second) || e.Reprobes() != sc.reprobes {
						t.Fatalf("%s: clean again at refresh %d, advice up to %v before, %d re-probes: the scenario tests nothing", sc.name, after, prior, e.Reprobes())
					}
					if a := w[after].adv; a.SuggestedInterval != a.Interval {
						t.Fatalf("%s: refresh %d advised %v at a locked %v (up to %v before): want the locked interval held",
							sc.name, after, a.SuggestedInterval, a.Interval, prior)
					}
				}
			}},
		},
		{
			clause:     "a client that follows halved advice is re-probed onto its new grid",
			controller: cell{cannot: "it sets the poll rate itself, so no client can poll on a grid it did not lock"},
			archiver:   cell{cannot: "the Archiver takes uniform blocks, each with its own interval, so it has no grid to re-probe"},
			hook: cell{check: func(t *testing.T) {
				// Persistent aliasing advises exactly half the locked
				// interval. A client that takes that advice polls on the
				// drift watch's edge, and the hook must re-probe onto it, or
				// it reads every frequency at half its value.
				e, adv := hookOnGrids(t, "contract/grids", tone50(0.1), 500*time.Millisecond)
				if e.Reprobes() != 1 || adv.Interval != 500*time.Millisecond {
					t.Fatalf("%d re-probes, interval %v after 2,000 polls 500 ms apart: want one re-probe onto 500ms (estimate %v Hz)", e.Reprobes(), adv.Interval, adv.NyquistRate)
				}
			}},
		},
		{
			clause:     "a _total counter is estimated on its increments",
			controller: cell{cannot: "it polls each device's rate signal as a gauge (Device.At), so no counter reaches its estimator"},
			archiver:   cell{cannot: "its caller hands it uniform blocks, and a counter's caller differences its trace first (RateFromCounter)"},
			hook: cell{check: func(t *testing.T) {
				// Increments round(1000 + 300·sin(2πfk)) a poll: read at
				// their rate and advised 1/(1.2 × rate), where the running
				// total read a ramp's floor, 2·2/256 Hz, whatever f was.
				for _, row := range []struct {
					f, estimate float64 // Hz
					suggest     time.Duration
				}{
					{0.02, 2 * 6.0 / 256, 17777777777},
					{0.05, 2 * 14.0 / 256, 7619047619},
					{0.1, 2 * 27.0 / 256, 3950617283},
					{0.2, 2 * 52.0 / 256, 2051282051},
				} {
					id := fmt.Sprintf("counter_%vhz_total", row.f)
					e, adv := hookOnGrids(t, id, counter(row.f, 1024), 0)
					if adv.Aliased || e.AliasedRefreshes() != 0 || adv.NyquistRate != row.estimate || adv.SuggestedInterval != row.suggest {
						t.Errorf("%s: estimate %v Hz, aliased %v (%d refreshes), advised %v; want %v Hz, never aliased, advised %v",
							id, adv.NyquistRate, adv.Aliased, e.AliasedRefreshes(), adv.SuggestedInterval, row.estimate, row.suggest)
					}
				}
			}},
		},
		{
			clause:     "a window too short to estimate is no verdict",
			controller: cell{cannot: "every round polls a full samplesPerRound window, so the estimator never answers ErrTooShort"},
			archiver: cell{check: func(t *testing.T) {
				// A partial Flush is kept raw and tunes nothing; the next
				// clean block is trusted at once.
				w := archiverWindows(t, winWide, winShort, winClean)
				if !w[2].raw || w[2].retention != w[1].retention || w[3].retention != w[3].estimate || !(w[3].retention < w[1].retention) {
					t.Fatalf("short block raw %v, retention %v → %v → %v: want the short block kept raw and the next estimate %v retained",
						w[2].raw, w[1].retention, w[2].retention, w[3].retention, w[3].estimate)
				}
			}},
			hook: cell{cannot: "a stream refreshes only once its window is full, so no refresh is too short"},
		},
	} {
		for _, c := range []struct {
			loop string
			cell
		}{{"controller", row.controller}, {"archiver", row.archiver}, {"hook", row.hook}} {
			t.Run(row.clause+"/"+c.loop, func(t *testing.T) {
				if c.check == nil {
					if c.cannot == "" {
						t.Fatal("a cell with no check must say why")
					}
					t.Log(c.cannot)
					return
				}
				c.check(t)
			})
		}
	}
}

// TestRatePolicyKnownDefects pins two findings the contract does not
// yet hold, through IngestEstimator.Observe under the default config over
// 1,024 polls 1 s apart (hookOnGrids). Each row asserts today's reading, so the change
// that lands the fix (ROADMAP 11(d)) flips its rows.
//
//   - A tone above the 0.5 Hz Nyquist limit folds into the band and is
//     estimated clean, so the hook advises a slower poll for a series that
//     is already under-sampled (ROADMAP 11). The 0.3 Hz tone is in band
//     and read right: the row a fix must keep.
//   - A client that moves its polls by less than 2× in either direction
//     is never re-probed: the hook keeps the old grid and reads a 0.1 Hz
//     tone (true Nyquist 0.2 Hz) off by the ratio (ROADMAP 11; 11(d)'s
//     cut check needs the hook to see cuts of less than 2×).
func TestRatePolicyKnownDefects(t *testing.T) {
	for _, row := range []struct {
		id       string
		value    func(t float64) float64 // at t seconds
		estimate float64                 // Hz, today's
		suggest  time.Duration
		known    string
		regrid   time.Duration // the client's poll interval after 1,024 polls at 1 s (0: unchanged)
	}{
		{"tone_0.3hz", tone50(0.3), 2 * 78.0 / 256, 0, "ROADMAP 11", 0},
		{"tone_0.6hz", tone50(0.6), 2 * 104.0 / 256, 0, "ROADMAP 11", 0},
		{"tone_0.7hz", tone50(0.7), 2 * 78.0 / 256, 0, "ROADMAP 11", 0},
		{"tone_0.9hz", tone50(0.9), 2 * 27.0 / 256, 3950617283, "ROADMAP 11", 0},
		{"tone_1.1hz", tone50(1.1), 2 * 27.0 / 256, 0, "ROADMAP 11", 0},
		{"tone_1.3hz", tone50(1.3), 2 * 78.0 / 256, 0, "ROADMAP 11", 0},
		{"tone_0.1hz_polls_0.73x", tone50(0.1), 2 * 20.0 / 256, 5333333333, "ROADMAP 11", 730 * time.Millisecond},
		{"tone_0.1hz_polls_1.37x", tone50(0.1), 2 * 36.0 / 256, 2962962962, "ROADMAP 11", 1370 * time.Millisecond},
	} {
		e, adv := hookOnGrids(t, row.id, row.value, row.regrid)
		if e.Reprobes() != 0 || adv.Interval != time.Second {
			t.Errorf("%s (%s): %d re-probes, interval %v; today's hook keeps the 1s grid", row.id, row.known, e.Reprobes(), adv.Interval)
		}
		if adv.Aliased || adv.NyquistRate != row.estimate || e.AliasedRefreshes() != 0 {
			t.Errorf("%s (%s): estimate %v Hz, aliased %v (%d refreshes); today's reading is %v Hz, never aliased",
				row.id, row.known, adv.NyquistRate, adv.Aliased, e.AliasedRefreshes(), row.estimate)
		}
		if row.suggest != 0 && adv.SuggestedInterval != row.suggest {
			t.Errorf("%s (%s): advised %v, today's advice is %v", row.id, row.known, adv.SuggestedInterval, row.suggest)
		}
	}
}

// tone50 is 50 + 10·sin(2πft) at t seconds.
func tone50(f float64) func(float64) float64 {
	return func(t float64) float64 { return 50 + 10*math.Sin(2*math.Pi*f*t) }
}

// counter is a running total, polled every second, whose increments are
// round(1000 + 300·sin(2πfk)) at poll k.
func counter(f float64, n int) func(float64) float64 {
	total := make([]float64, n)
	sum := 0.0
	for k := range total {
		sum += math.Round(1000 + 300*math.Sin(2*math.Pi*f*float64(k)))
		total[k] = sum
	}
	return func(t float64) float64 { return total[int(t)] }
}

// hookOnGrids observes value as series id through one IngestEstimator under
// the default config: 1,024 polls 1 s apart and then, unless every is 0,
// 2,000 polls every apart, as a client that changed its poll interval. It
// returns the hook and its advice.
func hookOnGrids(t *testing.T, id string, value func(float64) float64, every time.Duration) (*monitor.IngestEstimator, monitor.IngestAdvice) {
	t.Helper()
	e := monitor.NewIngestEstimator(nil, monitor.IngestConfig{})
	polls := 1024
	if every > 0 {
		polls += 2000
	}
	var at time.Duration
	for k := 0; k < polls; k++ {
		e.Observe(id, series.Point{Time: contractStart.Add(at), Value: value(at.Seconds())})
		if k < 1024 {
			at += time.Second
		} else {
			at += every
		}
	}
	adv, _ := e.Advice(id)
	return e, adv
}

// The scripts' windows: what each carries on top of the steady content.
type winKind int

const (
	winClean   winKind = iota // the steady contractTone alone
	winWide                   // plus a tone at 4 × contractTone, for this window only
	winAliased                // plus content at the top of the window's band
	winShort                  // a 10-sample block (the Archiver's partial Flush)
	winFast                   // plus fastTone
)

// fastTone is in band at 1 s polls, yet its Nyquist rate with headroom is
// above them.
const fastTone = 0.42

// contractTone is the steady content of every script, in hertz: on a bin
// of the Archiver's and the hook's windows at 1 s polls.
const contractTone = 1.0 / 16

var contractStart = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// window is what a loop shows after one analysis window.
type window struct {
	aliased   bool    // the loop took the window as aliased
	retention float64 // the store's Nyquist rate for the series afterwards
	rate      float64 // Controller: the poll rate granted afterwards
	raw       bool    // Archiver: the block was stored as polled
	estimate  float64 // Archiver: what core.Estimator reads on the block
	adv       monitor.IngestAdvice
	held      int64 // hook: IngestEstimator.HeldRefreshes afterwards
	retunes   int64 // hook: IngestEstimator.Retunes afterwards
}

// checkAliasedHold fails unless at least minAliased windows were aliased and
// none of them moved retention.
func checkAliasedHold(t *testing.T, w []window, minAliased int) {
	t.Helper()
	n := 0
	for i := 1; i < len(w); i++ {
		if w[i].aliased {
			n++
			if w[i].retention != w[i-1].retention {
				t.Fatalf("aliased window %d retuned retention %v → %v", i, w[i-1].retention, w[i].retention)
			}
		}
	}
	if n < minAliased {
		t.Fatalf("%d aliased windows, want at least %d: the scenario tests nothing", n, minAliased)
	}
}

// controllerWindows runs one Controller round per kind on a one-device
// scenario: a sensor quiet below its quantum carrying a steady contractTone,
// plus, for a wide round, a second tone over exactly that round's polls, and
// for an aliased round a strong one at 0.49 × that round's poll rate. w[0] is
// the state before the first round.
func controllerWindows(t *testing.T, kinds ...winKind) []window {
	t.Helper()
	d, err := NewDevice("contract/temperature", Temperature, 1e-6, time.Second, rand.New(rand.NewSource(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetNoiseAmp(0)
	d.AddBurst(Burst{Start: -5e5, Duration: 1e6, Freq: contractTone, Amp: 10})
	sc := &Scenario{Spec: ScenarioSpec{Name: "contract"}, Fleet: &Fleet{Devices: []*Device{d}}, PhaseOffset: []float64{0}}
	ctl, err := NewController(sc, ControllerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := []window{{rate: ctl.rate[0]}}
	for _, k := range kinds {
		span := samplesPerRound / ctl.rate[0]
		switch k {
		case winWide:
			d.AddBurst(Burst{Start: ctl.cursor[0], Duration: span, Freq: 4 * contractTone, Amp: 10})
		case winAliased:
			d.AddBurst(Burst{Start: ctl.cursor[0], Duration: span, Freq: 0.49 * ctl.rate[0], Amp: 1000})
		case winFast:
			d.AddBurst(Burst{Start: ctl.cursor[0], Duration: span, Freq: fastTone, Amp: 10})
		}
		sum, err := ctl.Step()
		if err != nil {
			t.Fatal(err)
		}
		if (sum.Aliased > 0) != (k == winAliased) {
			t.Fatalf("round %d: %d aliased devices; the script's window kind is %d", len(w), sum.Aliased, k)
		}
		w = append(w, window{aliased: sum.Aliased > 0, retention: ctl.store.NyquistRate(d.ID), rate: ctl.rate[0]})
	}
	return w
}

// archiverWindows archives one 256-sample block per kind (10 samples and a
// Flush for winShort) of 1 s polls of 50 + 10·sin(2π·contractTone·k), plus
// for a wide block a tone four times higher and for an aliased one white
// noise of 100 times the tone's amplitude. w[0] is the state before the
// first block.
func archiverWindows(t *testing.T, kinds ...winKind) []window {
	t.Helper()
	const id = "contract/archived"
	store := NewStore(0)
	a, err := NewArchiver(id, store, time.Second, ArchiverConfig{WindowSamples: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var est core.Estimator
	w := []window{{}}
	k := 0
	for _, kind := range kinds {
		n := 256
		if kind == winShort {
			n = 10
		}
		_, stored0, aliased0 := a.Savings()
		block := &series.Uniform{Start: contractStart.Add(time.Duration(k) * time.Second), Interval: time.Second, Values: make([]float64, n)}
		for i := range block.Values {
			x := float64(k)
			v := 50 + 10*math.Sin(2*math.Pi*contractTone*x)
			switch kind {
			case winWide:
				v += 10 * math.Sin(2*math.Pi*4*contractTone*x)
			case winAliased:
				v += 1000 * rng.NormFloat64()
			}
			block.Values[i] = v
			if err := a.Ingest(series.Point{Time: contractStart.Add(time.Duration(k) * time.Second), Value: v}); err != nil {
				t.Fatal(err)
			}
			k++
		}
		if kind == winShort {
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		_, stored, aliased := a.Savings()
		res, err := est.Estimate(block)
		if (err != nil) != (kind == winAliased || kind == winShort) {
			t.Fatalf("block %d of kind %d: the estimator says %v", len(w), kind, err)
		}
		win := window{aliased: aliased > aliased0, retention: store.NyquistRate(id), raw: stored-stored0 == n}
		if err == nil {
			win.estimate = res.NyquistRate
		}
		w = append(w, win)
	}
	return w
}

// seg is a stretch of a hook script: n polls of one kind, gap apart (0 =
// the script's interval).
type seg struct {
	kind winKind
	n    int
	gap  time.Duration
}

// hookRefreshes observes the segments' polls, every apart, of
// 50 + 10·sin(2π·contractTone·k) (plus a tone four times higher in a wide
// stretch, fastTone in a fast one, and white noise of 1,000 times the tone's
// amplitude in an aliased one) through one IngestEstimator over a store, and
// returns what it shows after each estimate refresh.
func hookRefreshes(t *testing.T, cfg monitor.IngestConfig, every time.Duration, segs ...seg) (*monitor.IngestEstimator, []window) {
	t.Helper()
	const id = "contract/pushed"
	store := NewStore(0)
	e := monitor.NewIngestEstimator(store, cfg)
	rng := rand.New(rand.NewSource(1))
	var w []window
	var last time.Time
	at, k := contractStart, 0
	for _, s := range segs {
		gap := every
		if s.gap > 0 {
			gap = s.gap
		}
		for i := 0; i < s.n; i++ {
			x := float64(k)
			v := 50 + 10*math.Sin(2*math.Pi*contractTone*x)
			switch s.kind {
			case winWide:
				v += 10 * math.Sin(2*math.Pi*4*contractTone*x)
			case winFast:
				v += 10 * math.Sin(2*math.Pi*fastTone*x)
			case winAliased:
				v += 1e4 * rng.NormFloat64()
			}
			e.Observe(id, series.Point{Time: at, Value: v})
			at, k = at.Add(gap), k+1
			adv, _ := e.Advice(id)
			if adv.UpdatedAt.IsZero() || adv.UpdatedAt.Equal(last) { // none yet, or re-probing
				continue
			}
			last = adv.UpdatedAt
			w = append(w, window{aliased: adv.Aliased, retention: store.NyquistRate(id), adv: adv, held: e.HeldRefreshes(), retunes: e.Retunes()})
		}
	}
	return e, w
}
