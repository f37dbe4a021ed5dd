package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/tsdb"
)

var ingestStart = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// twoTone is a band-limited test signal whose 99%-energy cut-off sits at
// its top component, so the expected Nyquist estimate is 2·f2.
func twoTone(f1, f2, t float64) float64 {
	return math.Sin(2*math.Pi*f1*t) + 0.8*math.Sin(2*math.Pi*f2*t+1)
}

// TestIngestEstimatorClosesLoop pins the serving-path contract: pushing
// a clean, regularly polled series locks the interval, produces a warm
// estimate near ground truth, suggests the sweet-spot interval, and
// retunes the store's retention via SetNyquist.
func TestIngestEstimatorClosesLoop(t *testing.T) {
	store := tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: 128, Tiers: 2}})
	e := NewIngestEstimator(store, IngestConfig{WindowSamples: 256, EmitEvery: 8})
	const (
		id       = "ext/router7/octets"
		f2       = 16.0 / 256 // on-bin top component at 1 Hz polls
		f1       = f2 / 4
		interval = time.Second
	)
	wantNyquist := 2 * f2
	for i := 0; i < 600; i++ {
		ts := ingestStart.Add(time.Duration(i) * interval)
		e.Observe(id, series.Point{Time: ts, Value: twoTone(f1, f2, float64(i))})
	}
	adv, ok := e.Advice(id)
	if !ok {
		t.Fatal("no advice for an observed series")
	}
	if adv.Interval != interval {
		t.Fatalf("locked interval %v, want %v", adv.Interval, interval)
	}
	if !adv.Warm {
		t.Fatalf("not warm after 600 samples with a 256 window: %+v", adv)
	}
	if adv.Aliased {
		t.Fatalf("clean signal flagged aliased: %+v", adv)
	}
	if rel := math.Abs(adv.NyquistRate-wantNyquist) / wantNyquist; rel > 0.2 {
		t.Fatalf("estimate %.5f Hz, want %.5f Hz ±20%% (off by %.0f%%)", adv.NyquistRate, wantNyquist, 100*rel)
	}
	wantSuggest := time.Duration(float64(time.Second) / (1.2 * adv.NyquistRate))
	if d := adv.SuggestedInterval - wantSuggest; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("suggested interval %v, want %v", adv.SuggestedInterval, wantSuggest)
	}
	// The estimate→retain loop must have reached the store.
	if got := store.NyquistRate(id); math.Abs(got-adv.NyquistRate) > 1e-9 {
		t.Fatalf("store retention rate %.5f, want the clean estimate %.5f", got, adv.NyquistRate)
	}
	if adv.Samples != 600 {
		t.Fatalf("samples %d, want 600", adv.Samples)
	}
}

// TestIngestEstimatorLocksJitteredGrid: external pollers jitter; the
// median-gap probe must still lock the nominal interval.
func TestIngestEstimatorLocksJitteredGrid(t *testing.T) {
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64})
	const id = "ext/jitter"
	rng := rand.New(rand.NewSource(3))
	ts := ingestStart
	for i := 0; i < 50; i++ {
		e.Observe(id, series.Point{Time: ts, Value: float64(i)})
		ts = ts.Add(10*time.Second + time.Duration(rng.Intn(41)-20)*time.Millisecond)
	}
	adv, _ := e.Advice(id)
	if adv.Interval < 9*time.Second || adv.Interval > 11*time.Second {
		t.Fatalf("locked %v from a jittered 10 s grid", adv.Interval)
	}
}

// TestIngestEstimatorStale: a series counts as stale once its newest point
// is more than four locked intervals old; a series still probing its
// interval never does.
func TestIngestEstimatorStale(t *testing.T) {
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64})
	for i := 0; i < 20; i++ {
		e.Observe("ext/locked", series.Point{Time: ingestStart.Add(time.Duration(i) * 10 * time.Second), Value: float64(i)})
	}
	for i := 0; i < 3; i++ {
		e.Observe("ext/probing", series.Point{Time: ingestStart.Add(time.Duration(i) * 10 * time.Second), Value: float64(i)})
	}
	last := ingestStart.Add(190 * time.Second)
	for _, c := range []struct {
		age  time.Duration
		want int
	}{{0, 0}, {40 * time.Second, 0}, {41 * time.Second, 1}, {time.Hour, 1}} {
		if got := e.Stale(last.Add(c.age)); got != c.want {
			t.Fatalf("newest point %v old at a 10 s interval: %d stale, want %d", c.age, got, c.want)
		}
	}
}

// TestIngestEstimatorUpdatedAtIsSampleTime: the refresh stamp is the
// real timestamp of the sample that completed the window, jitter and
// all, not a grid time extrapolated from the first sample.
func TestIngestEstimatorUpdatedAtIsSampleTime(t *testing.T) {
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, EmitEvery: 8})
	const id = "ext/jitter"
	rng := rand.New(rand.NewSource(3))
	ts := ingestStart
	var stamps []time.Time
	for i := 0; i < 100; i++ {
		stamps = append(stamps, ts)
		e.Observe(id, series.Point{Time: ts, Value: math.Sin(float64(i) / 3)})
		ts = ts.Add(10*time.Second + time.Duration(rng.Intn(4001)-2000)*time.Millisecond)
	}
	adv, _ := e.Advice(id)
	// 96 = 64 + 4·8 is the last refresh within 100 samples.
	if want := stamps[95]; !adv.UpdatedAt.Equal(want) {
		t.Fatalf("UpdatedAt %v, want sample 95's own timestamp %v", adv.UpdatedAt, want)
	}
}

// TestIngestEstimatorUnlockableWindowStaysBounded: a window below the
// estimator's 16-sample minimum can never lock; the series must stay in
// probe mode at a bounded cost instead of buffering every point.
func TestIngestEstimatorUnlockableWindowStaysBounded(t *testing.T) {
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 8})
	const id = "ext/tiny-window"
	for i := 0; i < 5000; i++ {
		e.Observe(id, series.Point{Time: ingestStart.Add(time.Duration(i) * time.Second), Value: float64(i % 5)})
	}
	adv, ok := e.Advice(id)
	if !ok || adv.Samples != 5000 || adv.Interval != 0 {
		t.Fatalf("advice %+v (ok=%v), want 5000 samples still probing", adv, ok)
	}
	e.mu.RLock()
	s := e.series[id]
	e.mu.RUnlock()
	if limit := 4 * (probeGaps + 1); len(s.pending) > limit {
		t.Fatalf("probe buffer holds %d points after 5000, want at most %d", len(s.pending), limit)
	}
}

// TestIngestEstimatorReprobesOnDrift: a client redeploy that changes the
// poll rate must re-lock the interval instead of estimating on a wrong
// frequency axis.
func TestIngestEstimatorReprobesOnDrift(t *testing.T) {
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64})
	const id = "ext/redeployed"
	ts := ingestStart
	for i := 0; i < 40; i++ {
		e.Observe(id, series.Point{Time: ts, Value: float64(i)})
		ts = ts.Add(time.Second)
	}
	if adv, _ := e.Advice(id); adv.Interval != time.Second {
		t.Fatalf("initial lock %v, want 1s", adv.Interval)
	}
	for i := 0; i < 40; i++ {
		e.Observe(id, series.Point{Time: ts, Value: float64(i)})
		ts = ts.Add(10 * time.Second)
	}
	adv, _ := e.Advice(id)
	if adv.Reprobes == 0 {
		t.Fatalf("no reprobe after a 10x gap change: %+v", adv)
	}
	if adv.Interval != 10*time.Second {
		t.Fatalf("re-locked %v, want 10s", adv.Interval)
	}
}

// TestIngestEstimatorConcurrent hammers distinct and shared series from
// many goroutines — the serving ingest pattern — for the race detector.
func TestIngestEstimatorConcurrent(t *testing.T) {
	store := tsdb.New(tsdb.Config{Shards: 4, Retention: tsdb.RetentionConfig{RawCapacity: 64, Tiers: 2}})
	e := NewIngestEstimator(store, IngestConfig{WindowSamples: 64, EmitEvery: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("ext/dev%d", g%4) // pairs of goroutines share a series
			for i := 0; i < 500; i++ {
				ts := ingestStart.Add(time.Duration(i) * time.Second)
				e.Observe(id, series.Point{Time: ts, Value: twoTone(0.01, 0.05, float64(i))})
				if i%100 == 0 {
					_, _ = e.Advice(id)
					_ = e.ExportState()
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Len() != 4 {
		t.Fatalf("observed %d series, want 4", e.Len())
	}
}

// TestIngestEstimatorMaxSeries pins the hostile-cardinality bound: new
// series beyond the cap are dropped and counted, existing series keep
// estimating.
func TestIngestEstimatorMaxSeries(t *testing.T) {
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, MaxSeries: 2})
	p := func(i int) series.Point {
		return series.Point{Time: ingestStart.Add(time.Duration(i) * time.Second), Value: float64(i)}
	}
	if !e.Observe("a", p(0)) || !e.Observe("b", p(0)) {
		t.Fatal("observations under the cap were dropped")
	}
	for i := 0; i < 3; i++ {
		if e.Observe(fmt.Sprintf("overflow/%d", i), p(i)) {
			t.Fatalf("series beyond MaxSeries=2 was accepted")
		}
	}
	if !e.Observe("a", p(1)) {
		t.Fatal("existing series dropped after the cap was hit")
	}
	if got := e.Rejected(); got != 3 {
		t.Fatalf("Rejected() = %d, want 3", got)
	}
	if got := e.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	if _, ok := e.Advice("overflow/0"); ok {
		t.Fatal("advice exists for a rejected series")
	}
}

// TestIngestEstimatorStateRoundTrip pins the durability contract:
// exported tuning state restored into a fresh estimator answers Advice
// with the same interval and Nyquist rate, re-applies the retention
// retune at the held rate, and continues estimating when new points
// arrive.
func TestIngestEstimatorStateRoundTrip(t *testing.T) {
	mkStore := func() *tsdb.DB {
		return tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: 128, Tiers: 2}})
	}
	cfg := IngestConfig{WindowSamples: 256, EmitEvery: 8}
	store1 := mkStore()
	e1 := NewIngestEstimator(store1, cfg)
	const (
		id       = "ext/router7/octets"
		f2       = 16.0 / 256
		f1       = f2 / 4
		interval = time.Second
	)
	for i := 0; i < 600; i++ {
		ts := ingestStart.Add(time.Duration(i) * interval)
		e1.Observe(id, series.Point{Time: ts, Value: twoTone(f1, f2, float64(i))})
	}
	pre, _ := e1.Advice(id)
	if pre.NyquistRate == 0 {
		t.Fatal("no trusted estimate to persist")
	}
	// 600 = 256 + 43·8: the newest sample completed a refresh.
	if want := ingestStart.Add(599 * interval); !pre.UpdatedAt.Equal(want) {
		t.Fatalf("UpdatedAt %v, want the newest refresh sample's %v", pre.UpdatedAt, want)
	}

	states := e1.ExportState()
	if len(states) != 1 || states[0].Series != id {
		t.Fatalf("ExportState = %+v, want one entry for %q", states, id)
	}
	store2 := mkStore()
	e2 := NewIngestEstimator(store2, cfg)
	if !e2.RestoreState(states[0]) {
		t.Fatal("RestoreState declined")
	}
	adv, ok := e2.Advice(id)
	if !ok {
		t.Fatal("no advice after restore")
	}
	if adv.Interval != pre.Interval {
		t.Fatalf("restored interval %v, want %v", adv.Interval, pre.Interval)
	}
	if adv.NyquistRate != pre.NyquistRate {
		t.Fatalf("restored nyquist %v, want %v", adv.NyquistRate, pre.NyquistRate)
	}
	if adv.Samples != pre.Samples {
		t.Fatalf("restored samples %d, want %d", adv.Samples, pre.Samples)
	}
	// Retention comes back at the held rate (what the first store was
	// tuned to), which the export carries beside the newest estimate.
	held := store1.NyquistRate(id)
	if states[0].HeldRate != held || held < pre.NyquistRate {
		t.Fatalf("exported held rate %v, store rate %v, newest estimate %v: want the first two equal and no lower than the third", states[0].HeldRate, held, pre.NyquistRate)
	}
	if got := store2.NyquistRate(id); got != held {
		t.Fatalf("restore did not re-apply SetNyquist: store rate %v, want %v", got, held)
	}
	if again := e2.ExportState(); len(again) != 1 || again[0] != states[0] {
		t.Fatalf("ExportState after RestoreState = %+v, want %+v", again, states)
	}

	// Rewarm: feeding the same tail the original estimator last saw
	// converges back to (numerically) the same estimate without
	// re-probing the interval.
	for i := 600; i < 1300; i++ {
		ts := ingestStart.Add(time.Duration(i) * interval)
		e2.Observe(id, series.Point{Time: ts, Value: twoTone(f1, f2, float64(i))})
	}
	adv2, _ := e2.Advice(id)
	if !adv2.Warm {
		t.Fatalf("restored estimator never rewarmed: %+v", adv2)
	}
	if adv2.Reprobes != pre.Reprobes {
		t.Fatalf("restored estimator re-probed: %d, want %d", adv2.Reprobes, pre.Reprobes)
	}
	// 696 = 256 + 55·8 is the last refresh among the 700 points fed since
	// the restore: a recovered series stamps its estimates like any other.
	if want := ingestStart.Add((600 + 695) * interval); !adv2.UpdatedAt.Equal(want) {
		t.Fatalf("UpdatedAt after restore %v, want %v", adv2.UpdatedAt, want)
	}
	if rel := math.Abs(adv2.NyquistRate-pre.NyquistRate) / pre.NyquistRate; rel > 0.05 {
		t.Fatalf("rewarmed estimate %.6f Hz drifted from %.6f Hz (%.1f%%)", adv2.NyquistRate, pre.NyquistRate, 100*rel)
	}
}

// TestIngestEstimatorLRUEviction pins the eviction order and contract:
// with EvictAfter enabled, a new series at the cap evicts the
// longest-idle series (and only a sufficiently idle one), counting each
// eviction, while EvictAfter=0 keeps the PR 5 hard-cap behavior.
func TestIngestEstimatorLRUEviction(t *testing.T) {
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, MaxSeries: 2, EvictAfter: 1})
	p := func(i int) series.Point {
		return series.Point{Time: ingestStart.Add(time.Duration(i) * time.Second), Value: float64(i)}
	}
	if !e.Observe("a", p(0)) || !e.Observe("b", p(1)) {
		t.Fatal("observations under the cap were dropped")
	}
	// c arrives at the cap: a is the longest idle, so a goes.
	if !e.Observe("c", p(2)) {
		t.Fatal("new series was rejected although an idle one was evictable")
	}
	if _, ok := e.Advice("a"); ok {
		t.Fatal("evicted series a still has advice")
	}
	if _, ok := e.Advice("b"); !ok {
		t.Fatal("series b was evicted out of LRU order (a was older)")
	}
	// d arrives: now b is the longest idle.
	if !e.Observe("d", p(3)) {
		t.Fatal("second new series was rejected")
	}
	if _, ok := e.Advice("b"); ok {
		t.Fatal("evicted series b still has advice")
	}
	if _, ok := e.Advice("c"); !ok {
		t.Fatal("series c was evicted out of LRU order (b was older)")
	}
	if got := e.Evicted(); got != 2 {
		t.Fatalf("Evicted() = %d, want 2", got)
	}
	if got := e.Rejected(); got != 0 {
		t.Fatalf("Rejected() = %d, want 0 (eviction, not rejection)", got)
	}
	if got := e.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}

	// Freshly-active series must never be evicted: with a high
	// EvictAfter nothing is idle enough, so the cap rejects instead.
	e2 := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, MaxSeries: 2, EvictAfter: 1 << 20})
	e2.Observe("a", p(0))
	e2.Observe("b", p(1))
	if e2.Observe("c", p(2)) {
		t.Fatal("series admitted by evicting a fresh series")
	}
	if got, want := e2.Rejected(), int64(1); got != want {
		t.Fatalf("Rejected() = %d, want %d", got, want)
	}
	if got := e2.Evicted(); got != 0 {
		t.Fatalf("Evicted() = %d, want 0", got)
	}
}

// recordingTuner records every SetNyquist handoff in order.
type recordingTuner struct {
	mu    sync.Mutex
	calls []float64
	ids   []string
}

func (r *recordingTuner) SetNyquistRate(id string, rate float64) {
	r.mu.Lock()
	r.calls = append(r.calls, rate)
	r.ids = append(r.ids, id)
	r.mu.Unlock()
}

// TestIngestEstimatorHandsOverChangesOnly pins what reaches the store:
// the series' held rate (core.RatePolicy over the clean estimates, one
// window turnover long), and only when it changes. An emission at the
// held rate is not a retune — no SetNyquist call (it would take the
// shard's write lock to change nothing), no count; a higher estimate is
// handed over at once; a lower one only after turnover lower estimates in
// a row, as the highest of them; Advice keeps reporting the newest clean
// estimate throughout.
func TestIngestEstimatorHandsOverChangesOnly(t *testing.T) {
	const id = "ext/steady"
	rec := &recordingTuner{}
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, EmitEvery: 4})
	e.store = rec
	if e.turnover != 16 {
		t.Fatalf("turnover = %d, want WindowSamples/EmitEvery = 16", e.turnover)
	}
	e.Observe(id, series.Point{Time: ingestStart, Value: 1})
	s := e.series[id]
	offer := func(rate float64, times int) func() {
		return func() {
			for k := 0; k < times; k++ {
				e.handOver(e.series[id], id, rate, nil)
			}
		}
	}
	for i, step := range []struct {
		name      string
		do        func()
		wantCalls []float64 // cumulative
		wantHeld  int       // Advice.HeldRefreshes
	}{
		{"one clean estimate over overlapping windows is not yet trusted", offer(0.5, 1), nil, 0},
		{"the second is", offer(0.5, 1), []float64{0.5}, 0},
		{"the same rate, five refreshes running", offer(0.5, 5), []float64{0.5}, 0},
		{"a higher rate, at once", offer(0.75, 1), []float64{0.5, 0.75}, 0},
		{"a lower rate, one short of a turnover", offer(0.25, 15), []float64{0.5, 0.75}, 15},
		{"the held rate again: the wait is over", offer(0.75, 1), []float64{0.5, 0.75}, 0},
		{"lower again, one short of a turnover", func() { offer(0.25, 7)(); offer(0.5, 1)(); offer(0.25, 7)() }, []float64{0.5, 0.75}, 15},
		{"the turnover-th lowers to the highest of them", offer(0.375, 1), []float64{0.5, 0.75, 0.5}, 0},
		{"a re-probe mid-wait keeps the rate and clears the wait", func() {
			offer(0.25, 10)()
			s.reprobe(e, id, series.Point{Time: ingestStart.Add(time.Hour), Value: 1})
		}, []float64{0.5, 0.75, 0.5}, 0},
		{"so the new grid needs its own clean run and full turnover", offer(0.25, 16), []float64{0.5, 0.75, 0.5}, 15},
		{"and then lowers", offer(0.25, 1), []float64{0.5, 0.75, 0.5, 0.25}, 0},
		{"a restored state is handed over at its held rate, not its newest estimate", func() {
			e.RestoreState(IngestSeriesState{Series: id, Interval: time.Second, NyquistRate: 0.3, HeldRate: 0.4, CleanStreak: 1})
		}, []float64{0.5, 0.75, 0.5, 0.25, 0.4}, 0},
		{"the restored rate re-estimated", offer(0.4, 1), []float64{0.5, 0.75, 0.5, 0.25, 0.4}, 0},
		{"then a higher one", offer(0.45, 1), []float64{0.5, 0.75, 0.5, 0.25, 0.4, 0.45}, 0},
	} {
		step.do()
		if fmt.Sprint(rec.calls) != fmt.Sprint(step.wantCalls) {
			t.Fatalf("step %d (%s): store saw %v, want %v", i, step.name, rec.calls, step.wantCalls)
		}
		adv, _ := e.Advice(id)
		if adv.HeldRefreshes != step.wantHeld || adv.HoldTurnover != 16 {
			t.Fatalf("step %d (%s): advice says %d of %d held refreshes, want %d of 16", i, step.name, adv.HeldRefreshes, adv.HoldTurnover, step.wantHeld)
		}
	}
	// The restore is a handoff by RestoreState itself, not a counted retune.
	if got := e.Retunes(); got != 5 {
		t.Fatalf("Retunes = %d, want 5 (every handOver that changed the held rate)", got)
	}
	if got := e.HeldRefreshes(); got != 15+15+10+15 {
		t.Fatalf("HeldRefreshes = %d, want 55 (every handOver below the held rate that changed nothing)", got)
	}
	if adv, _ := e.Advice(id); adv.NyquistRate != 0.45 {
		t.Fatalf("advised rate %v, want the newest clean estimate 0.45", adv.NyquistRate)
	}

	// The same through the door. Under the taper the 99 % cut-off of the
	// 64-sample window holds still for most tone pairs; these two put the
	// top tone where it falls on the edge between two bins, so it flips
	// between them as the phases slide: following every estimate would hand
	// over 85 and 31 times on these 2,000 points; the hold 2 times when
	// the flips are faster than a turnover, and follows them (30) when they
	// are slower.
	for _, tc := range []struct {
		f1, f2      float64
		parent, now int
	}{
		{0.7 / 64, 5.45 / 64, 85, 2},
		{1.0 / 64, 4.5 / 64, 31, 30},
	} {
		rec = &recordingTuner{}
		e = NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, EmitEvery: 4})
		e.store = rec
		estimates, lastEstimate, lastChange := 0, 0.0, 0
		for i := 0; i < 2000; i++ {
			before := len(rec.calls)
			e.Observe(id, series.Point{Time: ingestStart.Add(time.Duration(i) * time.Second), Value: twoTone(tc.f1, tc.f2, float64(i))})
			if adv, _ := e.Advice(id); adv.NyquistRate != lastEstimate {
				estimates, lastEstimate = estimates+1, adv.NyquistRate
			}
			if len(rec.calls) == before {
				continue
			}
			if n := len(rec.calls); n > 1 {
				if rec.calls[n-1] == rec.calls[n-2] {
					t.Fatalf("handoff %d repeats rate %v", n-1, rec.calls[n-1])
				}
				// A whole turnover is WindowSamples points.
				if rec.calls[n-1] < rec.calls[n-2] && i-lastChange < 64 {
					t.Fatalf("handoff %d lowers %v → %v only %d points after the last change", n-1, rec.calls[n-2], rec.calls[n-1], i-lastChange)
				}
			}
			lastChange = i
		}
		if estimates != tc.parent {
			t.Fatalf("tones %v/%v: the newest clean estimate changed %d times, want %d (what following every estimate hands over)", tc.f1, tc.f2, estimates, tc.parent)
		}
		if n := len(rec.calls); n != tc.now || n >= estimates || int64(n) != e.Retunes() {
			t.Fatalf("tones %v/%v: handed over %v (%d counted retunes), want %d changes against %d estimate changes", tc.f1, tc.f2, rec.calls, e.Retunes(), tc.now, estimates)
		}
	}
}

// TestIngestEstimatorAliasedRefreshLeavesTheHoldAlone drives a series
// through a drop in bandwidth with an aliased burst in the middle of the
// wait: aliased refreshes neither count toward the turnover nor reset it,
// and when retention finally lowers it lowers to the highest estimate of
// the wait, not the newest.
func TestIngestEstimatorAliasedRefreshLeavesTheHoldAlone(t *testing.T) {
	const (
		id    = "ext/burst"
		burst = 264 // its first sample: mid-wait, which the narrowing at 200 begins around 240
	)
	rec := &recordingTuner{}
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, EmitEvery: 4})
	e.store = rec
	signal := func(i int) float64 {
		switch {
		case i < 200: // wide: top tone at bin 12 of 64
			return twoTone(1.0/64, 12.0/64, float64(i))
		case i < burst, i >= burst+32: // narrow: one tone at bin 3
			return math.Sin(2 * math.Pi * 3 / 64 * float64(i))
		default:
			// All energy at the top of the band, the aliased signature —
			// and enough of it that the taper's near-zero weight at the
			// window's edges does not let it creep in as a clean high
			// estimate first.
			return 1e4 * float64(1-2*(i%2))
		}
	}
	var prev IngestAdvice
	aliasedMidWait, peak := 0, 0.0
	for i := 0; i < 600; i++ {
		calls := len(rec.calls)
		e.Observe(id, series.Point{Time: ingestStart.Add(time.Duration(i) * time.Second), Value: signal(i)})
		adv, _ := e.Advice(id)
		if adv.UpdatedAt.Equal(prev.UpdatedAt) {
			continue // no refresh on this point
		}
		if adv.Aliased {
			if len(rec.calls) != calls || adv.HeldRefreshes != prev.HeldRefreshes {
				t.Fatalf("point %d: an aliased refresh moved the hold: %d → %d held refreshes, store saw %v", i, prev.HeldRefreshes, adv.HeldRefreshes, rec.calls[calls:])
			}
			if adv.HeldRefreshes > 0 {
				aliasedMidWait++
			}
		}
		if i >= burst && adv.HeldRefreshes > 0 {
			peak = max(peak, adv.NyquistRate)
		}
		prev = adv
	}
	if aliasedMidWait < 8 {
		t.Fatalf("only %d aliased refreshes fell inside a wait; the scenario no longer tests anything", aliasedMidWait)
	}
	// The wait that the burst interrupted began while the window still
	// held wide-band samples, so its highest estimate is well above the
	// narrow tone's; the last two handoffs are that peak, then (a full
	// turnover later) the narrow tone itself.
	n := len(rec.calls)
	if n < 2 || rec.calls[n-1] != prev.NyquistRate || !(rec.calls[n-2] > 2*rec.calls[n-1]) || rec.calls[n-2] < peak {
		t.Fatalf("store saw %v, advice ends at %v: want the interrupted wait to lower to its peak (≥ %v), then to the settled estimate", rec.calls, prev.NyquistRate, peak)
	}
}

// TestIngestSeriesStateSize holds the rate policy to its budget: five
// scalars, 32 bytes, with a series' hook state at most 160 bytes
// (scripts/size.sh prints the line).
func TestIngestSeriesStateSize(t *testing.T) {
	policy, total := unsafe.Sizeof(core.RatePolicy{}), unsafe.Sizeof(ingestSeries{})
	t.Logf("hold state bytes per series: %d (ingestSeries %d)", policy, total)
	if policy > 32 || total > 160 {
		t.Fatalf("policy %d B, ingestSeries %d B: want at most 32 and 160", policy, total)
	}
}

// TestIngestStateBytes follows the estimator-state figure through every
// way a series gains or loses its analysis window — the interval lock, a
// drift re-probe, a restore with and without an interval, and an LRU
// eviction at each ring width — and every way a window changes width:
// 2 → 4 and 4 → 8 bytes a sample at a later push, 2 → 4 over a drift from
// the first sample, and to 8 from its first. Each moves StateBytes by
// exactly the windows it counts. Every series in the map costs its hook
// state whether it holds a window or not.
func TestIngestStateBytes(t *testing.T) {
	const window = 64
	hook := int64(unsafe.Sizeof(ingestSeries{}))
	header := int64(unsafe.Sizeof(core.StreamEstimator{}))
	type counts struct{ series, unpushed, w2, w4, w8 int64 }
	want := func(c counts) int64 {
		return c.series*hook + c.unpushed*header + c.w2*(header+2*window) + c.w4*(header+4*window) + c.w8*(header+8*window)
	}
	var e *IngestEstimator
	next := map[string]int{}
	observe := func(id string, gap time.Duration, v float64) {
		e.Observe(id, series.Point{Time: ingestStart.Add(time.Duration(next[id]) * gap), Value: v})
		next[id]++
	}
	feed := func(id string, n int, gap time.Duration) {
		for i := 0; i < n; i++ {
			observe(id, gap, float64(i%5))
		}
	}
	type step struct {
		name string
		do   func()
		want counts
	}
	play := func(steps []step) {
		t.Helper()
		for i, st := range steps {
			st.do()
			if got, want := e.StateBytes(), want(st.want); got != want {
				t.Fatalf("step %d (%s): StateBytes %d, want %d for %+v (hook %d, header %d, window %d)",
					i, st.name, got, want, st.want, hook, header, window)
			}
		}
	}
	e = NewIngestEstimator(nil, IngestConfig{WindowSamples: window, MaxSeries: 2, EvictAfter: 1})
	play([]step{
		{"a probes its interval", func() { feed("a", probeGaps, time.Second) }, counts{series: 1}},
		{"a locks", func() { feed("a", 1, time.Second) }, counts{series: 1, w2: 1}},
		{"a lands 10^6 from its first sample: 4 bytes", func() { observe("a", time.Second, 1e6) }, counts{series: 1, w4: 1}},
		{"a takes a float: 8 bytes", func() { observe("a", time.Second, math.Pi) }, counts{series: 1, w8: 1}},
		{"b probes beside it", func() { feed("b", 3, time.Second) }, counts{series: 2, w8: 1}},
		{"a drifts and re-probes", func() { feed("a", probeGaps+1, time.Minute) }, counts{series: 2}},
		{"b is restored locked", func() { e.RestoreState(IngestSeriesState{Series: "b", Interval: time.Second}) }, counts{series: 2, unpushed: 1}},
		{"b's first sample", func() { observe("b", time.Second, 5) }, counts{series: 2, w2: 1}},
		{"b drifts 200 a sample, 32,800 past it at the 164th: 4 bytes", func() {
			for i := 1; i <= 163; i++ {
				observe("b", time.Second, float64(5+200*i))
			}
			if w := want(counts{series: 2, w2: 1}); e.StateBytes() != w {
				t.Fatalf("b drifted 32,600 from its first sample: StateBytes %d, want %d", e.StateBytes(), w)
			}
			observe("b", time.Second, 5+200*164)
		}, counts{series: 2, w4: 1}},
		{"b's first sample is a float: 8 bytes", func() {
			e.RestoreState(IngestSeriesState{Series: "b", Interval: time.Second})
			observe("b", time.Second, math.NaN())
		}, counts{series: 2, w8: 1}},
		{"a is restored probing", func() { e.RestoreState(IngestSeriesState{Series: "a"}) }, counts{series: 2, w8: 1}},
	})
	// An eviction releases a window of each width, and one not pushed yet.
	for _, last := range []struct {
		name string
		v    float64
		want counts
	}{
		{"none", 0, counts{series: 1, unpushed: 1}},
		{"2 bytes", 3, counts{series: 1, w2: 1}},
		{"4 bytes", 1e6, counts{series: 1, w4: 1}},
		{"8 bytes", math.Pi, counts{series: 1, w8: 1}},
	} {
		e = NewIngestEstimator(nil, IngestConfig{WindowSamples: window, MaxSeries: 1, EvictAfter: 1})
		clear(next)
		do := func() {
			feed("x", probeGaps+1, time.Second)
			observe("x", time.Second, last.v)
		}
		if last.name == "none" {
			do = func() { e.RestoreState(IngestSeriesState{Series: "x", Interval: time.Second}) }
		}
		play([]step{
			{"x holds a window of " + last.name, do, last.want},
			{"y evicts the idle x", func() { feed("y", 1, time.Second) }, counts{series: 1}},
		})
	}
}

// TestIngestFirstSightAllocs pins what a new series costs the hook on its
// way to a locked window — highcard_http's path, where most series are
// new: one run formats an id and observes the probeGaps+1 points that
// lock its interval. The hook state, the probe buffer, the stream's
// header and its ring are four allocations; the id and the map's growth
// are the harness's.
func TestIngestFirstSightAllocs(t *testing.T) {
	e := NewIngestEstimator(nil, IngestConfig{})
	n := 0
	allocs := testing.AllocsPerRun(500, func() {
		id := fmt.Sprintf("ext/first/%d", n)
		n++
		for i := 0; i <= probeGaps; i++ {
			e.Observe(id, series.Point{Time: ingestStart.Add(time.Duration(i) * time.Second), Value: float64(4800+i%5) / 100})
		}
	})
	t.Logf("allocations per new series locked: %.2f", allocs)
	if e.Probes() != int64(n) {
		t.Fatalf("%d of %d series locked", e.Probes(), n)
	}
	if allocs > 7 {
		t.Fatalf("a new series' first %d points allocate %.2f times, want at most 7", probeGaps+1, allocs)
	}
}

// TestIngestEstimatorFlapRate measures how often retention moves on a
// seeded fleet of steady two-tone series (scripts/size.sh prints the
// line): the wander of the spectral cut-off must stay out of the store.
// Under the rectangular window the hold let 38.8 of 1,000 clean refreshes
// through (following every estimate: roughly 690); under the taper the
// cut-off holds still and the measurement is 2.1 — the one first handoff
// each of the 32 series makes.
func TestIngestEstimatorFlapRate(t *testing.T) {
	const (
		fleet  = 32
		points = 4096
		window = 256
		emit   = 8
	)
	rng := rand.New(rand.NewSource(19))
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: window, EmitEvery: emit})
	for k := 0; k < fleet; k++ {
		id := fmt.Sprintf("ext/fleet/%02d", k)
		f2 := 0.02 * math.Pow(10, rng.Float64()) // top tone 0.02–0.2 Hz at 1 Hz polls
		f1 := f2 * (0.1 + 0.4*rng.Float64())
		for i := 0; i < points; i++ {
			e.Observe(id, series.Point{Time: ingestStart.Add(time.Duration(i) * time.Second), Value: math.Round(100*twoTone(f1, f2, float64(i))) / 100})
		}
	}
	if got := e.AliasedRefreshes(); got != 0 {
		t.Fatalf("%d aliased refreshes on a band-limited fleet", got)
	}
	// Every refresh from the second on is past the clean streak.
	clean := int64(fleet * ((points-window)/emit + 1 - 1))
	per1000 := 1000 * float64(e.Retunes()) / float64(clean)
	t.Logf("held-rate changes per 1,000 clean refreshes: %.1f (%d of %d; %d held below the rate)", per1000, e.Retunes(), clean, e.HeldRefreshes())
	if per1000 > 10 {
		t.Fatalf("retention moved on %.1f of 1,000 clean refreshes, want at most 10", per1000)
	}
}

// TestIngestEstimatesCoverTheBand pins what the hook's taper is for, on a
// seeded fleet of two-decimal two-tone gauges polled at 1 Hz (both tones
// log-uniform in [1/64, 1/6] Hz, the second carrying at least a fifth of
// the energy): no served estimate falls below the series' true Nyquist
// rate 2·f_max — the silent direction, an under-estimate retains too
// coarsely and aliases — and the median estimate is within 8 % of it. The
// same windows under the rectangular window fail both: its sidelobes put
// the 99 % cut-off several bins past the band edge of some series and a
// bin short of it on others.
func TestIngestEstimatesCoverTheBand(t *testing.T) {
	const (
		fleet  = 256
		points = 1024
		bar    = 0.08
	)
	rng := rand.New(rand.NewSource(23))
	e := NewIngestEstimator(nil, IngestConfig{})
	var hannErr, rectErr []float64
	hannUnder, rectUnder := 0, 0
	for k := 0; k < fleet; k++ {
		id := fmt.Sprintf("ext/band/%03d", k)
		draw := func() float64 { return math.Pow(64.0/6, rng.Float64()) / 64 }
		f1, f2 := draw(), draw()
		a1 := 2 + 8*rng.Float64()
		a2 := a1 * (0.5 + 0.5*rng.Float64())
		p1, p2 := 2*math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
		rect, err := core.NewStreamEstimator(core.StreamConfig{Interval: time.Second, WindowSamples: e.cfg.WindowSamples, EmitEvery: e.cfg.EmitEvery})
		if err != nil {
			t.Fatal(err)
		}
		var rectRate float64
		for i := 0; i < points; i++ {
			v := math.Round(100*(50+a1*math.Sin(2*math.Pi*f1*float64(i)+p1)+a2*math.Sin(2*math.Pi*f2*float64(i)+p2))) / 100
			e.Observe(id, series.Point{Time: ingestStart.Add(time.Duration(i) * time.Second), Value: v})
			if up := rect.Push(v); up != nil && up.Err == nil {
				rectRate = up.Result.NyquistRate
			}
		}
		adv, _ := e.Advice(id)
		truth := 2 * math.Max(f1, f2)
		hannErr, rectErr = append(hannErr, math.Abs(adv.NyquistRate-truth)/truth), append(rectErr, math.Abs(rectRate-truth)/truth)
		if adv.NyquistRate < truth {
			hannUnder++
		}
		if rectRate < truth {
			rectUnder++
		}
	}
	hannP50, rectP50 := series.Percentile(hannErr, 50), series.Percentile(rectErr, 50)
	t.Logf("of %d series: tapered %d below 2·f_max, median error %.3f; rectangular %d below, median error %.3f", fleet, hannUnder, hannP50, rectUnder, rectP50)
	if hannUnder != 0 || hannP50 > bar {
		t.Fatalf("tapered: %d estimates below 2·f_max, median relative error %.3f; want none and at most %v", hannUnder, hannP50, bar)
	}
	if rectUnder == 0 || rectP50 <= bar {
		t.Fatalf("rectangular: %d estimates below 2·f_max, median relative error %.3f: the fleet no longer shows what the taper is for", rectUnder, rectP50)
	}
}
