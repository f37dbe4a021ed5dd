package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

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
	store := NewTieredStore(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: 128, Tiers: 2}})
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

// TestIngestEstimatorAliasedNeverRetunes pins the §4.2 asymmetry across
// the wire: an undersampled stream — energy at the very top of the
// measurable band, the aliasing signature — raises the alias streak and
// halves the suggested interval, but never touches retention.
func TestIngestEstimatorAliasedNeverRetunes(t *testing.T) {
	store := NewTieredStore(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: 128, Tiers: 2}})
	e := NewIngestEstimator(store, IngestConfig{WindowSamples: 64, EmitEvery: 4})
	const id = "ext/undersampled"
	for i := 0; i < 300; i++ {
		ts := ingestStart.Add(time.Duration(i) * time.Second)
		// Top tone at bin 31 of 64 (0.484 Hz against 1 Hz polls): past
		// the estimator's aliased guard in every window.
		e.Observe(id, series.Point{Time: ts, Value: twoTone(0.1, 31.0/64, float64(i))})
	}
	adv, ok := e.Advice(id)
	if !ok {
		t.Fatal("no advice")
	}
	if !adv.Aliased || adv.AliasStreak < 2 {
		t.Fatalf("white stream not flagged aliased with a streak: %+v", adv)
	}
	if adv.SuggestedInterval != time.Second/2 {
		t.Fatalf("aliased suggestion %v, want half the poll interval", adv.SuggestedInterval)
	}
	if got := store.NyquistRate(id); got != 0 {
		t.Fatalf("aliased stream retuned retention to %.5f Hz — it must not", got)
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
	if limit := 4 * (e.cfg.ProbeGaps + 1); len(s.pending) > limit {
		t.Fatalf("probe buffer holds %d points after 5000, want at most %d", len(s.pending), limit)
	}
}

// TestIngestEstimatorReprobesOnDrift: a client redeploy that changes the
// poll rate must re-lock the interval instead of estimating on a wrong
// frequency axis.
func TestIngestEstimatorReprobesOnDrift(t *testing.T) {
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, ProbeGaps: 4})
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
	store := NewTieredStore(tsdb.Config{Shards: 4, Retention: tsdb.RetentionConfig{RawCapacity: 64, Tiers: 2}})
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
					_ = e.Series()
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
// retune, and continues estimating when new points arrive.
func TestIngestEstimatorStateRoundTrip(t *testing.T) {
	mkStore := func() *Store {
		return NewTieredStore(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: 128, Tiers: 2}})
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
	if got := store2.NyquistRate(id); got != pre.NyquistRate {
		t.Fatalf("restore did not re-apply SetNyquist: store rate %v, want %v", got, pre.NyquistRate)
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
}

func (r *recordingTuner) SetNyquist(_ string, rate float64) {
	r.mu.Lock()
	r.calls = append(r.calls, rate)
	r.mu.Unlock()
}

// TestIngestEstimatorHandsOverChangesOnly pins what reaches the store: an
// emission repeating the rate the series last handed over is not a retune
// — no SetNyquist call (it would take the shard's write lock to change
// nothing), no count — while a changed rate, the first estimate after a
// re-probe and a restored state are all handed over.
func TestIngestEstimatorHandsOverChangesOnly(t *testing.T) {
	const id = "ext/steady"
	rec := &recordingTuner{}
	e := NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, EmitEvery: 4})
	e.store = rec
	e.Observe(id, series.Point{Time: ingestStart, Value: 1})
	s := e.series[id]
	for i, step := range []struct {
		name      string
		do        func()
		wantCalls []float64 // cumulative
	}{
		{"first clean estimate", func() { e.handOver(s, id, 0.5) }, []float64{0.5}},
		{"the same rate, five refreshes running", func() {
			for k := 0; k < 5; k++ {
				e.handOver(s, id, 0.5)
			}
		}, []float64{0.5}},
		{"a changed rate", func() { e.handOver(s, id, 0.25) }, []float64{0.5, 0.25}},
		{"and the same again", func() { e.handOver(s, id, 0.25) }, []float64{0.5, 0.25}},
		{"back to the first", func() { e.handOver(s, id, 0.5) }, []float64{0.5, 0.25, 0.5}},
		{"a re-probe, then the new grid's estimate", func() {
			s.reprobe(series.Point{Time: ingestStart.Add(time.Hour), Value: 1})
			e.handOver(s, id, 0.7)
		}, []float64{0.5, 0.25, 0.5, 0.7}},
		{"a restored state", func() {
			e.RestoreState(IngestSeriesState{Series: id, Interval: time.Second, NyquistRate: 0.3, CleanStreak: 1})
		}, []float64{0.5, 0.25, 0.5, 0.7, 0.3}},
		{"the restored rate re-estimated", func() { e.handOver(e.series[id], id, 0.3) }, []float64{0.5, 0.25, 0.5, 0.7, 0.3}},
		{"then a new one", func() { e.handOver(e.series[id], id, 0.4) }, []float64{0.5, 0.25, 0.5, 0.7, 0.3, 0.4}},
	} {
		step.do()
		if fmt.Sprint(rec.calls) != fmt.Sprint(step.wantCalls) {
			t.Fatalf("step %d (%s): store saw %v, want %v", i, step.name, rec.calls, step.wantCalls)
		}
	}
	// The restore is a handoff by RestoreState itself, not a counted retune.
	if got := e.Retunes(); got != 5 {
		t.Fatalf("Retunes = %d, want 5 (every handOver that changed the rate)", got)
	}

	// The same through the door: a steady two-tone series refreshes its
	// estimate dozens of times and hands over only when the rate moves.
	rec = &recordingTuner{}
	e = NewIngestEstimator(nil, IngestConfig{WindowSamples: 64, EmitEvery: 4})
	e.store = rec
	for i := 0; i < 2000; i++ {
		e.Observe(id, series.Point{Time: ingestStart.Add(time.Duration(i) * time.Second), Value: twoTone(1.0/64, 4.0/64, float64(i))})
	}
	adv, _ := e.Advice(id)
	if n := len(rec.calls); n == 0 || n > 5 || int64(n) != e.Retunes() || rec.calls[n-1] != adv.NyquistRate {
		t.Fatalf("a steady series handed over %v (%d counted retunes) and advises %v: want a handful of changes ending on the advised rate", rec.calls, e.Retunes(), adv.NyquistRate)
	}
	for i := 1; i < len(rec.calls); i++ {
		if rec.calls[i] == rec.calls[i-1] {
			t.Fatalf("handoff %d repeats rate %v", i, rec.calls[i])
		}
	}
}
