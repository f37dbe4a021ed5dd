package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/series"
)

// oracleWindows are the tapers every stream-vs-batch oracle runs under:
// nil (rectangular, the paper's method) and Hann (what the ingest hook
// serves).
var oracleWindows = []struct {
	name string
	w    dsp.Window
}{{"rect", nil}, {"hann", dsp.Hann{}}}

func dayTrace(t *testing.T, n int, interval time.Duration, noise float64, seed int64) *series.Uniform {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	for i := range vals {
		ts := float64(i) * interval.Seconds()
		vals[i] = 50 +
			5*math.Sin(2*math.Pi*12/86400*ts) +
			2*math.Sin(2*math.Pi*40/86400*ts) +
			noise*rng.NormFloat64()
	}
	u, err := series.NewUniform(time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC), interval, vals)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// streamBatchTol is how far a streaming estimate may sit from the batch
// estimate of the same window, relative to the value: both are exact
// transforms, so only FFT rounding separates them — at every emission.
const streamBatchTol = 1e-12

func requireMatchesBatch(t *testing.T, where string, got, want *Result) {
	t.Helper()
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"NyquistRate", got.NyquistRate, want.NyquistRate},
		{"CutoffFreq", got.CutoffFreq, want.CutoffFreq},
		{"ReductionRatio", got.ReductionRatio, want.ReductionRatio},
		{"EnergyCaptured", got.EnergyCaptured, want.EnergyCaptured},
	} {
		if diff := math.Abs(f.g - f.w); diff > streamBatchTol*(1+math.Abs(f.w)) {
			t.Fatalf("%s %s: streaming %.17g, batch %.17g", where, f.name, f.g, f.w)
		}
	}
	if got.Aliased != want.Aliased {
		t.Fatalf("%s aliased: streaming %v, batch %v", where, got.Aliased, want.Aliased)
	}
}

// TestStreamMatchesBatch is the equivalence contract: every estimate a
// StreamEstimator emits equals the batch Estimator's over the same
// window, to floating-point accuracy.
func TestStreamMatchesBatch(t *testing.T) {
	cases := []struct {
		name                  string
		samples, window, emit int
		noise                 float64
		priorSamples          int // push this many samples of another signal into an estimator of the same shape first
		interval              time.Duration
	}{
		{name: "whole trace, one emission", samples: 1440, window: 1440, emit: 1, noise: 0.05, interval: time.Minute},
		{name: "power-of-two window, every sample", samples: 700, window: 256, emit: 1, noise: 0.02, interval: 30 * time.Second},
		{name: "serving shape", samples: 2048, window: 256, emit: 8, noise: 0.02, interval: 30 * time.Second},
		{name: "non-power-of-two window", samples: 3000, window: 1440, emit: 97, noise: 0.05, interval: time.Minute},
		{name: "fresh after another signal", samples: 700, window: 256, emit: 8, noise: 0.02, priorSamples: 333, interval: 30 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, win := range oracleWindows {
				t.Run(win.name, func(t *testing.T) {
					u := dayTrace(t, tc.samples, tc.interval, tc.noise, 4)
					cfg := StreamConfig{Interval: tc.interval, WindowSamples: tc.window, EmitEvery: tc.emit, Window: win.w}
					// Estimators of one window length share the plan, the
					// taper table and pooled work buffers: a stream used
					// before must leave nothing behind in them.
					prior, err := NewStreamEstimator(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < tc.priorSamples; i++ {
						prior.Push(1e6 * float64(i%5))
					}
					st, err := NewStreamEstimator(cfg)
					if err != nil {
						t.Fatal(err)
					}
					batch := Estimator{cfg: EstimatorConfig{Window: win.w}}
					emissions := 0
					var last *StreamUpdate
					for i, v := range u.Values {
						up := st.Push(v)
						if last = up; up == nil {
							continue
						}
						emissions++
						sub, err := u.Slice(i+1-tc.window, i+1)
						if err != nil {
							t.Fatal(err)
						}
						want, err := batch.Estimate(sub)
						if (up.Err != nil) != (err != nil) {
							t.Fatalf("sample %d: streaming err %v, batch err %v", i, up.Err, err)
						}
						requireMatchesBatch(t, fmt.Sprintf("sample %d", i), up.Result, want)
					}
					if want := (tc.samples-tc.window)/tc.emit + 1; emissions != want {
						t.Fatalf("%d emissions, want %d", emissions, want)
					}
					// Current, on or off the cadence, sees the same window, and
					// hands out a Result of its own even when the newest sample
					// just emitted one.
					got, gerr := st.Current()
					if last != nil && got == last.Result {
						t.Fatal("Current returned the emitted update's Result itself")
					}
					sub, _ := u.Slice(tc.samples-tc.window, tc.samples)
					want, werr := batch.Estimate(sub)
					if (gerr != nil) != (werr != nil) {
						t.Fatalf("Current err %v, batch err %v", gerr, werr)
					}
					requireMatchesBatch(t, "Current", got, want)
				})
			}
		})
	}
}

// TestStreamMatchesMovingWindow checks the sliding emissions reproduce
// the batch moving-window scan window for window.
func TestStreamMatchesMovingWindow(t *testing.T) {
	const (
		window = 256
		step   = 64
	)
	u := dayTrace(t, 2048, 30*time.Second, 0.02, 11)
	for _, win := range oracleWindows {
		t.Run(win.name, func(t *testing.T) {
			batch := Estimator{cfg: EstimatorConfig{Window: win.w}}
			wins, err := batch.MovingWindow(u, window*30*time.Second, step*30*time.Second)
			if err != nil {
				t.Fatal(err)
			}

			st, err := NewStreamEstimator(StreamConfig{
				Interval:      30 * time.Second,
				WindowSamples: window,
				EmitEvery:     step,
				Window:        win.w,
				Start:         u.Start,
			})
			if err != nil {
				t.Fatal(err)
			}
			ups := st.Feed(u.Values)

			if len(ups) != len(wins) {
				t.Fatalf("emissions: streaming %d, batch %d", len(ups), len(wins))
			}
			for i, up := range ups {
				w := wins[i]
				if !up.WindowStart.Equal(w.WindowStart) {
					t.Fatalf("window %d start: streaming %v, batch %v", i, up.WindowStart, w.WindowStart)
				}
				if (up.Err != nil) != (w.Err != nil) {
					t.Fatalf("window %d: streaming err %v, batch err %v", i, up.Err, w.Err)
				}
				requireMatchesBatch(t, fmt.Sprintf("window %d", i), up.Result, w.Result)
			}
		})
	}
}

// TestStreamConstantWindowReadsClean pins exactness where it decides a
// verdict: once the window holds only one value, every non-DC bin is
// exactly zero and the estimate is the finest measurable rate, as the
// batch estimator says — whatever the stream carried before. (An
// incrementally updated spectrum keeps rounding residue of the earlier
// samples there, and a spectrum of residue is flat: it reads as aliased.)
func TestStreamConstantWindowReadsClean(t *testing.T) {
	st, err := NewStreamEstimator(StreamConfig{Interval: 30 * time.Second, WindowSamples: 64, EmitEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 720; i++ {
		v := 20.0
		if i < 720-64 {
			v = float64(19 + (i*7)%3)
		}
		st.Push(v)
	}
	res, err := st.Current()
	if err != nil {
		t.Fatalf("constant window: %v", err)
	}
	if want := 2 * st.SampleRate() / 64; res.NyquistRate != want || res.EnergyCaptured != 1 {
		t.Fatalf("constant window: rate %g (want %g), energy captured %g (want 1)", res.NyquistRate, want, res.EnergyCaptured)
	}
}

// TestStreamStateSize pins the per-stream memory: a warm estimator
// retains its sample ring — 2 bytes a sample for a stream of two-decimal
// readings, 4 for a counter 2^15 past its first sample, 8 for one of
// arbitrary floats — and a small fixed header, nothing that scales
// with the window besides the ring.
func TestStreamStateSize(t *testing.T) {
	const (
		streams = 1000
		window  = 256
	)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, form := range []struct {
		name   string
		sample func(i int) float64
		bytes  int // per window sample
	}{
		{"decimal", func(i int) float64 { return float64(4800+i%7*13) / 100 }, 2},
		{"counter", func(i int) float64 { return float64(7_340_032_000 + 2500*i + i%7*13) }, 4},
		{"float", func(i int) float64 { return 48 + math.Sin(float64(i)) }, 8},
	} {
		// Shared tables and pooled scratch are not per-stream state: build
		// them before the baseline.
		warm := func() *StreamEstimator {
			st, err := NewStreamEstimator(StreamConfig{Interval: time.Second, WindowSamples: window, EmitEvery: 8})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < window+8; i++ {
				st.Push(form.sample(i))
			}
			if st.SampleBytes() != form.bytes {
				t.Fatalf("%s stream: SampleBytes() = %d, want %d", form.name, st.SampleBytes(), form.bytes)
			}
			return st
		}
		warm()
		all := make([]*StreamEstimator, streams)
		before := heap()
		for i := range all {
			all[i] = warm()
		}
		after := heap()
		per := float64(after-before) / streams
		t.Logf("state bytes per warm stream (window %d, %s): %.0f", window, form.name, per)
		if limit := float64(form.bytes*window + 320); per > limit {
			t.Fatalf("a warm %s stream retains %.0f B, want at most %.0f", form.name, per, limit)
		}
		runtime.KeepAlive(all)
	}
}

// TestStreamForm pins, for every stream of both differential scripts
// under the serving window, the samples at which the ring takes a width
// ("2@0" is the first sample's 2-byte ring), so TestStreamDifferential
// keeps covering every width, the raises inside them and every way from
// one width to the next. The anchor moves only as raises scale it.
func TestStreamForm(t *testing.T) {
	want := map[string]string{
		"two-decimal":        "2@0",
		"counter":            "2@0 4@13",
		"raise":              "2@0 4@340",
		"int32-edge":         "2@0 4@1 8@400",
		"raise-past-int32":   "2@0 4@1 8@330",
		"float-first":        "8@0",
		"float-mid":          "2@0 8@300",
		"nan-mid":            "2@0 8@270",
		"negzero-mid":        "2@0 8@300",
		"nan-first":          "8@0",
		"negzero-first":      "8@0",
		"int16-edges":        "2@0 4@600",
		"rising-gauge":       "2@0 4@734",
		"sinking-gauge":      "2@0 4@719",
		"counter-int16":      "2@0 4@822",
		"raise-past-int16":   "2@0 4@300",
		"raise-rebase":       "2@0 4@500",
		"counter-past-int32": "2@0 4@1 8@684",
		"two-four-eight":     "2@0 4@300 8@600",
	}
	for _, s := range append(streamScript(), transitionScript()...) {
		st, err := NewStreamEstimator(StreamConfig{Interval: time.Second, WindowSamples: 256})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i, v := range s.vals {
			width, mref, exp := st.width, st.mref, st.exp
			st.Push(v)
			if st.width != width {
				got = append(got, fmt.Sprintf("%d@%d", st.width, i))
			}
			if k := int64(math.Pow10(int(st.exp - exp))); width != 0 && st.width < 8 && st.mref != mref*k {
				t.Errorf("%s: sample %d moved the anchor %d at 10^-%d to %d at 10^-%d", s.name, i, mref, exp, st.mref, st.exp)
			}
		}
		if g := strings.Join(got, " "); g != want[s.name] {
			t.Errorf("%s: %q, want %q", s.name, g, want[s.name])
		}
		if s.name == "raise" && st.exp != 6 {
			t.Errorf("raise: exponent %d, want 6", st.exp)
		}
	}
}

// TestStreamAliasingStreak feeds a signal whose energy sits entirely at
// the top of the analyzed band — the aliased signature — and checks the
// risk signal.
func TestStreamAliasingStreak(t *testing.T) {
	st, err := NewStreamEstimator(StreamConfig{Interval: time.Second, WindowSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	var last *StreamUpdate
	emitted := 0
	for i := 0; i < 200; i++ {
		if up := st.Push(float64(1 - 2*(i%2))); up != nil {
			emitted++
			if !errors.Is(up.Err, ErrAliased) {
				t.Fatalf("emission %d: want ErrAliased, got %v", emitted, up.Err)
			}
			if up.AliasStreak != emitted {
				t.Fatalf("emission %d: streak %d", emitted, up.AliasStreak)
			}
			if up.SuggestedInterval != time.Second/2 {
				t.Fatalf("emission %d: suggested %v, want 500ms", emitted, up.SuggestedInterval)
			}
			last = up
		}
	}
	if last == nil || !last.Result.Aliased {
		t.Fatal("no aliased emissions")
	}
}

// TestStreamSweetSpot checks the suggested interval applies the constant
// 1.2 headroom to the estimated rate.
func TestStreamSweetSpot(t *testing.T) {
	u := dayTrace(t, 1440, time.Minute, 0, 4)
	st, err := NewStreamEstimator(StreamConfig{Interval: time.Minute, WindowSamples: u.Len()})
	if err != nil {
		t.Fatal(err)
	}
	var last *StreamUpdate
	for _, v := range u.Values {
		if up := st.Push(v); up != nil {
			last = up
		}
	}
	if last == nil {
		t.Fatal("no emission after a full window")
	}
	want := time.Duration(float64(time.Second) / (1.2 * last.Result.NyquistRate))
	if last.SuggestedInterval != want {
		t.Fatalf("suggested %v, want %v", last.SuggestedInterval, want)
	}
}

// TestStreamWarmupAndReset checks nothing is emitted before a full
// window, Current reports ErrTooShort, and a fresh estimator of the same
// configuration — the reset — starts cold again.
func TestStreamWarmupAndReset(t *testing.T) {
	cfg := StreamConfig{Interval: time.Second, WindowSamples: 32}
	st, err := NewStreamEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 31; i++ {
		if up := st.Push(float64(i)); up != nil {
			t.Fatalf("emission during warmup at push %d", i)
		}
	}
	if _, err := st.Current(); !errors.Is(err, ErrTooShort) {
		t.Fatalf("Current before warm: %v, want ErrTooShort", err)
	}
	if up := st.Push(1); up == nil {
		t.Fatal("no emission at window fill")
	}
	if st, err = NewStreamEstimator(cfg); err != nil {
		t.Fatal(err)
	}
	if st.Warm() || st.count != 0 {
		t.Fatalf("reset left warm=%v seen=%d", st.Warm(), st.count)
	}
	if _, err := st.Current(); !errors.Is(err, ErrTooShort) {
		t.Fatalf("Current after reset: %v, want ErrTooShort", err)
	}
}

// TestStreamPushSteadyStateAllocs checks the non-emitting push path
// allocates nothing — the bounded-memory property.
func TestStreamPushSteadyStateAllocs(t *testing.T) {
	st, err := NewStreamEstimator(StreamConfig{
		Interval:      time.Second,
		WindowSamples: 256,
		EmitEvery:     1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		st.Push(float64(i % 7))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		st.Push(3)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Push allocates %v objects per call", allocs)
	}
}

// TestStreamEmitZeroAlloc checks a warm emitting push allocates nothing
// either: on the serving shape (window 256, Hann, a refresh every 8
// points) every measured run crosses one emission, which the estimator
// writes into the update and Result it owns.
func TestStreamEmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race build: its sync.Pool drops pooled buffers at random")
	}
	const emitEvery = 8
	st, err := NewStreamEstimator(StreamConfig{
		Interval:      time.Second,
		WindowSamples: 256,
		EmitEvery:     emitEvery,
		Window:        dsp.Hann{},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; i < 300; i++ {
		st.Push(float64(i % 7))
	}
	emitted := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for k := 0; k < emitEvery; k++ {
			if up := st.Push(float64(i % 7)); up != nil && up.Result != nil {
				emitted++
			}
			i++
		}
	})
	if emitted != 1001 {
		t.Fatalf("%d emissions over 1001 runs of %d pushes, want one per run", emitted, emitEvery)
	}
	if allocs != 0 {
		t.Fatalf("a warm emitting push run allocates %v objects, want 0", allocs)
	}
}

// TestStreamFeedOwnsItsUpdates pins the ownership split: Push hands out
// the estimator's own update and Result, overwritten by the next
// emission, while Feed returns copies that later pushes leave alone.
func TestStreamFeedOwnsItsUpdates(t *testing.T) {
	u := dayTrace(t, 1024, 30*time.Second, 0.02, 5)
	st, err := NewStreamEstimator(StreamConfig{Interval: 30 * time.Second, WindowSamples: 256, EmitEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	ups := st.Feed(u.Values[:512])
	if len(ups) != 5 {
		t.Fatalf("%d emissions from 512 samples, want 5", len(ups))
	}
	type frozen struct {
		up  StreamUpdate
		res Result
	}
	before := make([]frozen, len(ups))
	for i, up := range ups {
		before[i] = frozen{up, *up.Result}
		if i > 0 && up.Result == ups[i-1].Result {
			t.Fatalf("updates %d and %d share one Result", i-1, i)
		}
	}
	var pushed *StreamUpdate
	for _, v := range u.Values[512:] {
		if up := st.Push(v); up != nil {
			if pushed != nil && up != pushed {
				t.Fatal("an emitting Push returned a different update than the one before it")
			}
			pushed = up
		}
	}
	if pushed == nil {
		t.Fatal("no emission after Feed")
	}
	for i, up := range ups {
		if up != before[i].up || *up.Result != before[i].res {
			t.Fatalf("Feed's update %d changed after further pushes", i)
		}
		if up.Result == pushed.Result {
			t.Fatalf("Feed's update %d shares the estimator's Result", i)
		}
	}
}

// TestStreamConfigValidation exercises the config error paths.
func TestStreamConfigValidation(t *testing.T) {
	cases := []StreamConfig{
		{}, // missing interval
		{Interval: time.Second, WindowSamples: 8},         // window too short
		{Interval: time.Second, EnergyCutoff: 1.5},        // cutoff out of range
		{Interval: time.Second, EnergyCutoff: math.NaN()}, // would key a shared table no lookup finds
	}
	for i, cfg := range cases {
		if _, err := NewStreamEstimator(cfg); err == nil {
			t.Fatalf("case %d: config %+v accepted", i, cfg)
		}
	}
}
