package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dcsim"
	"repro/internal/dsp"
	"repro/internal/series"
)

// emission is one refresh of a series' window: the index of the reading
// that completed it, and what the window read.
type emission struct {
	at      int
	rate    float64
	aliased bool
}

// hookEmissions observes u's readings as series id through e, one poll
// each, and returns every refresh of the series' window.
func hookEmissions(e *IngestEstimator, id string, u *series.Uniform) []emission {
	var out []emission
	for i, v := range u.Values {
		ts := u.Start.Add(time.Duration(i) * u.Interval)
		e.Observe(id, series.Point{Time: ts, Value: v})
		e.mu.RLock()
		s := e.series[id]
		e.mu.RUnlock()
		s.mu.Lock()
		if up := s.last; up != nil && up.Time.Equal(ts) && up.Result != nil {
			out = append(out, emission{i, up.Result.NyquistRate, up.Err != nil})
		}
		s.mu.Unlock()
	}
	return out
}

// referenceEmissions is the offline counter path the hook must match: a
// Hann-tapered core.StreamEstimator under cfg, run on
// dcsim.RateFromCounter of counter. A rate computed from readings i−1 and
// i is the hook's reading i.
func referenceEmissions(t *testing.T, cfg IngestConfig, counter *series.Uniform) []emission {
	t.Helper()
	cfg = cfg.withDefaults()
	rate, err := dcsim.RateFromCounter(counter)
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewStreamEstimator(core.StreamConfig{
		Interval:      counter.Interval,
		WindowSamples: cfg.WindowSamples,
		EmitEvery:     cfg.EmitEvery,
		EnergyCutoff:  cfg.EnergyCutoff,
		Window:        dsp.Hann{},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []emission
	for i, v := range rate.Values {
		if up := est.Push(v); up != nil {
			out = append(out, emission{i + 1, up.Result.NyquistRate, up.Err != nil})
		}
	}
	return out
}

// sameEmissions fails unless got and want refresh at the same readings
// with the same verdicts and rates within tol of want's, relatively.
func sameEmissions(t *testing.T, name string, got, want []emission, tol float64) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s: the reference never refreshed: the trace tests nothing", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: the hook refreshed %d times, the reference %d", name, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.at != w.at || g.aliased != w.aliased || math.Abs(g.rate-w.rate) > tol*math.Abs(w.rate) {
			t.Fatalf("%s: refresh %d at reading %d read %v Hz (aliased %v); the reference at %d read %v Hz (aliased %v)",
				name, i, g.at, g.rate, g.aliased, w.at, w.rate, w.aliased)
		}
	}
}

// TestCounterMatchesRateFromCounter is the counter rule's oracle (ROADMAP
// 8(b)): each of dcsim's counter profiles, exported as CounterTrace and
// pushed under a _total id, refreshes exactly as the offline path —
// the stream estimator on RateFromCounter of the same trace — does. The
// hook reads whole increments and the offline path increments over the
// interval, so the rates agree to rounding.
func TestCounterMatchesRateFromCounter(t *testing.T) {
	n := 0
	for _, m := range dcsim.AllMetrics() {
		p := dcsim.ProfileFor(m)
		if !p.Counter {
			continue
		}
		n++
		d, err := dcsim.NewDevice("sw1/"+m.String(), m, p.NyquistHi/2, p.PollIntervals[0], rand.New(rand.NewSource(int64(m))), uint64(m))
		if err != nil {
			t.Fatal(err)
		}
		u := d.CounterTrace(ingestStart, 0, 1024*d.PollInterval)
		id := fmt.Sprintf("sw1/metric%d_total", m)
		e := NewIngestEstimator(nil, IngestConfig{})
		got := hookEmissions(e, id, u)
		sameEmissions(t, m.String(), got, referenceEmissions(t, IngestConfig{}, u), 1e-12)
		if adv, _ := e.Advice(id); adv.Interval != d.PollInterval || adv.Samples != int64(u.Len()) {
			t.Fatalf("%s: locked %v after %d samples, want %v after %d", m, adv.Interval, adv.Samples, d.PollInterval, u.Len())
		}
	}
	if n != 7 {
		t.Fatalf("%d counter profiles, want dcsim's 7", n)
	}
}

// TestCounterResetMidWindow pushes a seeded counter whose source restarts
// from zero in the middle of a warm window: the reset reads its new value
// as the increment, so every refresh matches both the offline path on
// the reset trace and the hook on the same counter without the reset.
func TestCounterResetMidWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const polls, reset = 1024, 700
	inc := make([]float64, polls)
	for k := range inc {
		inc[k] = math.Round(400 + 150*math.Sin(2*math.Pi*0.07*float64(k)) + 20*rng.NormFloat64())
	}
	plain := &series.Uniform{Start: ingestStart, Interval: time.Second, Values: make([]float64, polls)}
	restarted := &series.Uniform{Start: ingestStart, Interval: time.Second, Values: make([]float64, polls)}
	var total, since float64
	for k, v := range inc {
		total += v
		if k == reset {
			since = 0
		}
		since += v
		plain.Values[k] = total
		restarted.Values[k] = total
		if k >= reset {
			restarted.Values[k] = since
		}
	}
	want := hookEmissions(NewIngestEstimator(nil, IngestConfig{}), "plain_total", plain)
	got := hookEmissions(NewIngestEstimator(nil, IngestConfig{}), "restarted_total", restarted)
	sameEmissions(t, "reset against plain", got, want, 0)
	sameEmissions(t, "reset against RateFromCounter", got, referenceEmissions(t, IngestConfig{}, restarted), 0)
	seen := 0
	for _, g := range got {
		if g.at >= reset && g.at < reset+256 {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no refresh saw the reset in its window: the trace tests nothing")
	}
}

// TestCounterRestoreNeverPushesTotal restarts a counter from its exported
// state and rewarms it on the stored tail, as nyquistd's recovery does:
// the first replayed reading only primes the rule, so the window holds
// increments alone — a 2-byte ring — and refreshes exactly as the offline
// path on the tail does. Pushed, a running total of 10^12 would widen the
// ring to float64 and read a ramp.
func TestCounterRestoreNeverPushesTotal(t *testing.T) {
	const id = `ifHCInOctets_total{port="7"}`
	u := &series.Uniform{Start: ingestStart, Interval: 10 * time.Second, Values: make([]float64, 1200)}
	total := 1e12
	for k := range u.Values {
		total += math.Round(5000 + 2000*math.Sin(2*math.Pi*float64(k)/12))
		u.Values[k] = total
	}
	e1 := NewIngestEstimator(nil, IngestConfig{})
	hookEmissions(e1, id, &series.Uniform{Start: u.Start, Interval: u.Interval, Values: u.Values[:600]})
	states := e1.ExportState()
	if len(states) != 1 || states[0].Interval != u.Interval {
		t.Fatalf("exported %+v, want one series locked at %v", states, u.Interval)
	}

	e2 := NewIngestEstimator(nil, IngestConfig{})
	if !e2.RestoreState(states[0]) {
		t.Fatal("RestoreState declined")
	}
	tail := &series.Uniform{Start: u.Start.Add(600 * u.Interval), Interval: u.Interval, Values: u.Values[600:]}
	got := hookEmissions(e2, id, tail)
	sameEmissions(t, "restored", got, referenceEmissions(t, IngestConfig{}, tail), 0)
	if b := e2.series[id].est.SampleBytes(); b != 2 {
		t.Fatalf("the restored window holds %d-byte samples, want 2: a running total reached it", b)
	}
}

// FuzzCounterIncrements pushes arbitrary counter readings, resets among
// them, 1 s apart under a _total id, and requires every refresh to match
// the offline path's bit for bit: at a 1 s interval RateFromCounter's
// rates are the increments themselves.
//
// start is the first reading; each byte of steps below 0xf0 adds itself
// to the counter, and each from 0xf0 up restarts it at the byte's low
// nibble (a reset when that falls below the reading).
func FuzzCounterIncrements(f *testing.F) {
	f.Add(uint32(0), []byte("the counter counts and counts, on and on, up and up, with no end"))
	f.Add(uint32(1<<31), []byte{1, 2, 3, 0xf3, 5, 200, 7, 8, 0xf0, 0xff, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 0xf1, 1, 2})
	f.Add(uint32(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	cfg := IngestConfig{WindowSamples: core.MinSamples, EmitEvery: 2}
	f.Fuzz(func(t *testing.T, start uint32, steps []byte) {
		u := &series.Uniform{Start: ingestStart, Interval: time.Second, Values: make([]float64, len(steps)+1)}
		v := float64(start)
		u.Values[0] = v
		for i, b := range steps {
			if b >= 0xf0 {
				v = float64(b & 0x0f)
			} else {
				v += float64(b)
			}
			u.Values[i+1] = v
		}
		got := hookEmissions(NewIngestEstimator(nil, cfg), "fuzz_total", u)
		var want []emission
		if u.Len() >= 2 {
			want = referenceEmissions(t, cfg, u)
		}
		if len(got) != len(want) {
			t.Fatalf("the hook refreshed %d times, the reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("refresh %d: the hook read %+v, the reference %+v", i, got[i], want[i])
			}
		}
	})
}

// TestWindowWidthShare reports the share of analysis windows at each ring
// width (go test -run WindowWidthShare -v) over the ten dcsim scenarios, 48
// devices and 6 rounds of 64 polls each: their wire traffic as monitorsim
// pushes it, gauge readings under the devices' ids, and their counter
// families' devices exported as CounterTrace under _total ids. A counter's
// window must be as wide as its increments need, never as its running
// total would make it.
func TestWindowWidthShare(t *testing.T) {
	const rounds = 6
	var gauges, counters [4]int64
	for _, spec := range dcsim.Scenarios() {
		sc, err := dcsim.BuildScenario(spec.Name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		wire := NewIngestEstimator(nil, IngestConfig{})
		gen := dcsim.NewWireGen(sc, dcsim.WireConfig{})
		last := map[string]time.Time{}
		for r := 0; r < rounds; r++ {
			for _, ws := range gen.Round() {
				if ws.Late || !ws.Time.After(last[ws.ID]) {
					continue // the store refuses it, so the hook never sees it
				}
				last[ws.ID] = ws.Time
				wire.Observe(ws.ID, series.Point{Time: ws.Time, Value: ws.Value})
			}
		}
		ctr := NewIngestEstimator(nil, IngestConfig{})
		for i, d := range sc.Fleet.Devices {
			if !dcsim.ProfileFor(d.Metric).Counter {
				continue
			}
			u := d.CounterTrace(ingestStart, sc.PhaseOffset[i], rounds*dcsim.DefaultSamplesPerRound*d.PollInterval)
			id := d.ID + "_total"
			for k, v := range u.Values {
				ctr.Observe(id, series.Point{Time: u.Start.Add(time.Duration(k) * u.Interval), Value: v})
			}
			ref, err := core.NewStreamEstimator(core.StreamConfig{Interval: u.Interval, Window: dsp.Hann{}})
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < u.Len(); k++ {
				ref.Push(series.Increment(u.Values[k-1], u.Values[k]))
			}
			if got, want := ctr.series[id].est.SampleBytes(), ref.SampleBytes(); got != want {
				t.Fatalf("%s: a %d-byte window, want the %d bytes its increments need", id, got, want)
			}
		}
		for slot := range gauges {
			gauges[slot] += wire.windows[slot].Load()
			counters[slot] += ctr.windows[slot].Load()
		}
	}
	for _, row := range []struct {
		name string
		n    [4]int64
	}{{"wire gauges", gauges}, {"_total counters", counters}} {
		total := row.n[1] + row.n[2] + row.n[3]
		t.Logf("%s: %d windows, 2 B %d, 4 B %d (%.1f %%), 8 B %d", row.name, total, row.n[1], row.n[2], 100*float64(row.n[2])/float64(total), row.n[3])
	}
}
