package monitor

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/series"
	"repro/internal/tsdb"
)

var start = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

// newStore returns a store whose raw ring holds capacity points per
// series (0 = unbounded).
func newStore(capacity int) *tsdb.DB {
	return tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: capacity}})
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
