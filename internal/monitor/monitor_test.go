package monitor

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/tsdb"
)

var start = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

// newStore returns a store whose raw ring holds capacity points per
// series (0 = unbounded).
func newStore(capacity int) *tsdb.DB {
	return tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: capacity}})
}

func slowTone(f float64) core.SamplerFunc {
	return func(t float64) float64 { return 40 + 10*math.Sin(2*math.Pi*f*t) }
}

func TestCostModelAccumulation(t *testing.T) {
	var c Cost
	m := DefaultCostModel()
	c.Add(m, 10)
	if c.Samples != 10 || c.WireBytes != 160 || c.StoreBytes != 160 || c.CPUUnits != 15 {
		t.Fatalf("cost = %+v", c)
	}
	var d Cost
	d.Add(m, 5)
	c.AddCost(d)
	if c.Samples != 15 {
		t.Fatalf("merged samples = %d", c.Samples)
	}
	if r := c.Ratio(d); math.Abs(r-3) > 1e-12 {
		t.Fatalf("ratio = %v, want 3", r)
	}
	if (Cost{}).Ratio(Cost{}) != 0 {
		t.Fatal("ratio vs empty should be 0")
	}
	if c.String() == "" {
		t.Fatal("empty cost string")
	}
}

func TestStoreAppendQuery(t *testing.T) {
	s := newStore(0)
	for i := 0; i < 10; i++ {
		if err := s.Append("a", series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Query("a", start.Add(2*time.Second), start.Add(5*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 3 {
		t.Fatalf("query returned %d points, want 3", len(got.Points))
	}
	if _, err := s.Query("missing", start, start.Add(time.Hour), 0); !errors.Is(err, tsdb.ErrNoSeries) {
		t.Fatalf("err = %v, want tsdb.ErrNoSeries", err)
	}
	if s.Points() != 10 {
		t.Fatalf("points = %d", s.Points())
	}
	ids := s.IDs()
	if len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("ids = %v", ids)
	}
}

// TestBoundedStoreNoLongerFails is the regression test for the seed
// store's failure mode: a bounded store used to return a hard error
// once the capacity was hit, silently stalling long-running archiver
// sessions. The tsdb-backed store must instead keep accepting
// writes forever and degrade resolution (compact into min/max/mean tiers).
func TestBoundedStoreNoLongerFails(t *testing.T) {
	s := newStore(3)
	for i := 0; i < 500; i++ {
		if err := s.Append("a", series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
			t.Fatalf("append %d: %v (the bounded store must never fail a write)", i, err)
		}
	}
	st := s.Stats()
	if st.Appends != 500 {
		t.Fatalf("appends = %d, want 500", st.Appends)
	}
	if st.Compacted == 0 {
		t.Fatal("capacity pressure never compacted anything")
	}
	// Degraded, not dead: history is still queryable at reduced
	// resolution alongside the exact raw tail.
	full, err := s.Query("a", start, start.Add(500*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	aggregated := false
	for _, a := range full.Aggregates {
		if a.Count > 1 {
			aggregated = true
		}
	}
	if !aggregated {
		t.Fatal("no downsampled buckets; store did not degrade per tier")
	}
	if full.Points[len(full.Points)-1].Value != 499 {
		t.Fatalf("newest raw value = %v, want 499", full.Points[len(full.Points)-1].Value)
	}
}

// TestStoreConcurrentAppend races two writers per series over the same
// timestamps: conservation under contention. A writer that falls behind
// its twin is rejected as out of order; every attempt is accepted or
// rejected, exactly the accepted points land, and no series goes
// backwards in time.
func TestStoreConcurrentAppend(t *testing.T) {
	s := newStore(0)
	const writers, perWriter = 8, 200
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := string(rune('a' + g%4))
			for i := 0; i < perWriter; i++ {
				err := s.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, tsdb.ErrOutOfOrder):
					rejected.Add(1)
				default:
					t.Errorf("Append = %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := accepted.Load() + rejected.Load(); got != writers*perWriter {
		t.Fatalf("accepted %d + rejected %d = %d, attempted %d", accepted.Load(), rejected.Load(), got, writers*perWriter)
	}
	if st := s.Stats(); st.Appends != accepted.Load() || int64(s.Points()) != accepted.Load() {
		t.Fatalf("appends = %d, points = %d, accepted %d", st.Appends, s.Points(), accepted.Load())
	}
	if len(s.IDs()) != 4 {
		t.Fatalf("ids = %v", s.IDs())
	}
	for _, id := range s.IDs() {
		full, err := s.Full(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(full.Points); i++ {
			if full.Points[i].Time.Before(full.Points[i-1].Time) {
				t.Fatalf("%s point %d at %v precedes %v", id, i, full.Points[i].Time, full.Points[i-1].Time)
			}
		}
	}
}

func TestStoreAppendUniform(t *testing.T) {
	s := newStore(0)
	u := &series.Uniform{Start: start, Interval: time.Second, Values: []float64{1, 2, 3}}
	if err := s.AppendUniform("u", u); err != nil {
		t.Fatal(err)
	}
	full, err := s.Full("u")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Points) != 3 {
		t.Fatalf("full len = %d", len(full.Points))
	}
	if _, err := s.Full("nope"); !errors.Is(err, tsdb.ErrNoSeries) {
		t.Fatal("want tsdb.ErrNoSeries")
	}
}

func TestStaticPollerRun(t *testing.T) {
	s := newStore(0)
	p := &StaticPoller{ID: "dev", Target: slowTone(0.001), Interval: 10 * time.Second, Model: DefaultCostModel()}
	cost, err := p.Run(s, start, 0, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Samples != 60 {
		t.Fatalf("samples = %d, want 60", cost.Samples)
	}
	stored, err := s.Full("dev")
	if err != nil {
		t.Fatal(err)
	}
	if len(stored.Points) != 60 {
		t.Fatalf("stored = %d", len(stored.Points))
	}
}

func TestStaticPollerBoundedStoreDegrades(t *testing.T) {
	// Regression for the seed failure mode: a bounded store filling
	// mid-run used to abort the poller. Now the run completes and old
	// samples survive as coarser-tier summaries.
	s := newStore(10)
	p := &StaticPoller{ID: "dev", Target: slowTone(0.001), Interval: time.Second, Model: DefaultCostModel()}
	cost, err := p.Run(s, start, 0, time.Minute)
	if err != nil {
		t.Fatalf("bounded store aborted the run: %v", err)
	}
	if cost.Samples != 60 {
		t.Fatalf("samples = %d, want the full 60", cost.Samples)
	}
	st := s.Stats()
	// Block-granular eviction keeps the raw store within a quarter of
	// its capacity; every sample is still raw or was compacted.
	if st.Appends != 60 || st.RawPoints <= 10-2 || st.RawPoints > 10 || st.Compacted != int64(60-st.RawPoints) {
		t.Fatalf("appends = %d, raw = %d, compacted = %d; want 60, raw within (8, 10], compacted = 60 - raw", st.Appends, st.RawPoints, st.Compacted)
	}
}

func TestArchiverBoundedStoreKeepsRunning(t *testing.T) {
	// The seed archiver stalled for good once its bounded store filled.
	// A long session over a tiny store must now run to completion with
	// every block accepted.
	s := newStore(3)
	a, err := NewArchiver("x", s, time.Second, ArchiverConfig{WindowSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if err := a.Ingest(series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i % 7)}); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	raw, stored, _ := a.Savings()
	if raw != 1024 || stored == 0 {
		t.Fatalf("raw=%d stored=%d; the session must have kept archiving", raw, stored)
	}
}

func TestStaticPollerErrors(t *testing.T) {
	p := &StaticPoller{ID: "x", Interval: time.Second}
	if _, err := p.Run(nil, start, 0, time.Minute); err == nil {
		t.Fatal("nil target should fail")
	}
	p = &StaticPoller{ID: "x", Target: slowTone(0.1)}
	if _, err := p.Run(nil, start, 0, time.Minute); err == nil {
		t.Fatal("zero interval should fail")
	}
}

func TestAdaptivePollerStoresPrimarySamples(t *testing.T) {
	s := newStore(0)
	p := &AdaptivePoller{
		ID:     "dev",
		Target: slowTone(0.02),
		Config: core.AdaptiveConfig{InitialRate: 0.5, MaxRate: 4, EpochDuration: 256},
		Model:  DefaultCostModel(),
	}
	res, err := p.Run(s, start, 0, 2048*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Samples <= 0 {
		t.Fatal("no samples billed")
	}
	stored, err := s.Full("dev")
	if err != nil {
		t.Fatal(err)
	}
	if len(stored.Points) == 0 {
		t.Fatal("nothing stored")
	}
	// Probe overhead means billed > stored.
	if res.Cost.Samples <= len(stored.Points) {
		t.Fatalf("billed %d should exceed stored %d (companion probes)", res.Cost.Samples, len(stored.Points))
	}
}

// twoToneAbove is two tones at 3.03 Hz and 1.71 Hz: above anything an
// adaptive loop capped at 1 Hz can sample cleanly.
var twoToneAbove = core.SamplerFunc(func(t float64) float64 {
	return 40 + 10*math.Sin(2*math.Pi*3.03*t) + 7*math.Sin(2*math.Pi*1.71*t)
})

// lastCleanEstimate returns the newest epoch estimate of a run (0 = none).
func lastCleanEstimate(run *core.RunResult) float64 {
	last := 0.0
	for _, e := range run.Epochs {
		if e.EstimatedNyquist > 0 {
			last = e.EstimatedNyquist
		}
	}
	return last
}

// TestAdaptivePollerAliasedRunNeverRetunes: a run whose every epoch was
// aliased has no estimate to trust, so retention must stay untuned (the
// parent handed the store FinalRate/Headroom = 0.5 Hz regardless).
func TestAdaptivePollerAliasedRunNeverRetunes(t *testing.T) {
	s := newStore(0)
	p := &AdaptivePoller{
		ID:     "dev",
		Target: twoToneAbove,
		Config: core.AdaptiveConfig{InitialRate: 0.05, MaxRate: 1, EpochDuration: 256},
		Model:  DefaultCostModel(),
	}
	res, err := p.Run(s, start, 0, 8*256*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Run.Epochs) != 8 {
		t.Fatalf("epochs = %d, want 8", len(res.Run.Epochs))
	}
	for _, e := range res.Run.Epochs {
		if !e.Aliased || e.EstimatedNyquist != 0 {
			t.Fatalf("epoch %d: aliased=%v estimate=%g, want an all-aliased run", e.Index, e.Aliased, e.EstimatedNyquist)
		}
	}
	if got := s.NyquistRate("dev"); got != 0 {
		t.Fatalf("retention tuned to %g Hz by a run with no clean estimate (FinalRate %g)", got, res.Run.FinalRate)
	}
}

// TestAdaptivePollerAliasedTailKeepsLastCleanEstimate: clean epochs
// followed by aliased ones leave retention at the last clean estimate —
// not at the probed-up poll rate divided by the headroom.
func TestAdaptivePollerAliasedTailKeepsLastCleanEstimate(t *testing.T) {
	const switchAt = 4 * 256.0
	target := core.SamplerFunc(func(ts float64) float64 {
		if ts < switchAt {
			return slowTone(0.02).At(ts)
		}
		return twoToneAbove.At(ts)
	})
	s := newStore(0)
	p := &AdaptivePoller{
		ID:     "dev",
		Target: target,
		Config: core.AdaptiveConfig{InitialRate: 0.5, MaxRate: 1, EpochDuration: 256},
		Model:  DefaultCostModel(),
	}
	res, err := p.Run(s, start, 0, 8*256*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	lastClean := lastCleanEstimate(res.Run)
	if last := res.Run.Epochs[len(res.Run.Epochs)-1]; lastClean == 0 || !last.Aliased {
		t.Fatalf("want clean epochs then an aliased tail, got last clean %g and a final epoch %+v", lastClean, last)
	}
	if got := s.NyquistRate("dev"); got != lastClean {
		t.Fatalf("retention rate %g, want the last clean estimate %g (FinalRate/2 = %g)", got, lastClean, res.Run.FinalRate/2)
	}
}

func TestAdaptivePollerNilTarget(t *testing.T) {
	p := &AdaptivePoller{ID: "x", Config: core.AdaptiveConfig{InitialRate: 1, MaxRate: 2, EpochDuration: 10}}
	if _, err := p.Run(nil, start, 0, time.Minute); err == nil {
		t.Fatal("nil target should fail")
	}
}

func TestCompareAdaptiveBeatsStaticOnSlowSignal(t *testing.T) {
	// A signal with a 0.002 Hz component polled statically at 1 Hz is
	// massively oversampled; the adaptive poller must slash cost while
	// keeping reconstruction quality high.
	target := slowTone(0.002)
	cmp, err := Compare(target, 0, 4096*time.Second, CompareConfig{
		StaticInterval: time.Second,
		Adaptive:       core.AdaptiveConfig{InitialRate: 0.05, MaxRate: 1, EpochDuration: 1024},
		ReferenceRate:  1,
		Model:          DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CostReduction < 5 {
		t.Fatalf("cost reduction = %v, want > 5x", cmp.CostReduction)
	}
	if cmp.Fidelity.NRMSE > 0.05 {
		t.Fatalf("NRMSE = %v, want < 0.05", cmp.Fidelity.NRMSE)
	}
}

// TestArchiverClosesEstimateRetainLoop checks a clean block estimate
// lands in the store's retention policy: after archiving, the series
// carries the Nyquist rate the stream estimator found.
func TestArchiverClosesEstimateRetainLoop(t *testing.T) {
	s := newStore(256)
	a, err := NewArchiver("temp", s, time.Second, ArchiverConfig{WindowSamples: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		v := 40 + 5*math.Sin(2*math.Pi*16*float64(i)/1024)
		if err := a.Ingest(series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.NyquistRate("temp")
	if got <= 0 {
		t.Fatal("store never learned the series' Nyquist rate")
	}
	// 16 cycles per 1024 s → f_max = 16/1024 Hz → Nyquist rate 32/1024.
	want := 2 * 16.0 / 1024
	if got < want/2 || got > 4*want {
		t.Fatalf("retained rate %g Hz, want within a small factor of %g", got, want)
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(nil, 0, time.Minute, CompareConfig{StaticInterval: time.Second, ReferenceRate: 1}); err == nil {
		t.Fatal("nil target should fail")
	}
	if _, err := Compare(slowTone(0.01), 0, time.Minute, CompareConfig{ReferenceRate: 1}); err == nil {
		t.Fatal("zero static interval should fail")
	}
	if _, err := Compare(slowTone(0.01), 0, time.Minute, CompareConfig{StaticInterval: time.Second}); err == nil {
		t.Fatal("zero reference rate should fail")
	}
}
