package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// newStore returns a store whose raw ring holds capacity points per
// series (0 = unbounded).
func newStore(capacity int) *tsdb.DB {
	return tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: capacity}})
}

func TestArchiverCompressesOversampledStream(t *testing.T) {
	store := newStore(0)
	a, err := NewArchiver("temp", store, time.Second, ArchiverConfig{WindowSamples: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// 4096 one-second samples of a 16-cycles-per-block signal.
	for i := 0; i < 4096; i++ {
		ts := start.Add(time.Duration(i) * time.Second)
		v := 40 + 5*math.Sin(2*math.Pi*16*float64(i)/1024)
		if err := a.Ingest(series.Point{Time: ts, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	raw, stored, aliased := a.Savings()
	if raw != 4096 {
		t.Fatalf("raw = %d", raw)
	}
	if aliased != 0 {
		t.Fatalf("aliased blocks = %d, want 0", aliased)
	}
	// 16 cycles/1024 samples -> Nyquist 32/1024; headroom 1.2 -> keep
	// roughly 40 samples per 1024. Anything below 1/10 of raw is a win.
	if stored >= raw/10 {
		t.Fatalf("stored %d of %d; expected heavy compression", stored, raw)
	}
	if a.Reduction() < 10 {
		t.Fatalf("reduction = %v", a.Reduction())
	}
}

func TestArchiverReadBackFidelity(t *testing.T) {
	store := newStore(0)
	a, err := NewArchiver("sig", store, time.Second, ArchiverConfig{WindowSamples: 2048})
	if err != nil {
		t.Fatal(err)
	}
	orig := make([]float64, 2048)
	for i := range orig {
		orig[i] = math.Sin(2*math.Pi*8*float64(i)/2048) + 0.5*math.Cos(2*math.Pi*20*float64(i)/2048)
		if err := a.Ingest(series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: orig[i]}); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := a.ReadBack(1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() < len(orig)*9/10 {
		t.Fatalf("read back %d samples, want ~%d", rec.Len(), len(orig))
	}
	n := rec.Len()
	if n > len(orig) {
		n = len(orig)
	}
	fid, err := core.CompareSignals(orig[:n], rec.Values[:n])
	if err != nil {
		t.Fatal(err)
	}
	if fid.NRMSE > 0.05 {
		t.Fatalf("read-back NRMSE = %v", fid.NRMSE)
	}
}

func TestArchiverPartialFlush(t *testing.T) {
	store := newStore(0)
	a, err := NewArchiver("short", store, time.Second, ArchiverConfig{WindowSamples: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Too short to estimate: flushed raw.
	for i := 0; i < 10; i++ {
		if err := a.Ingest(series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	_, stored, _ := a.Savings()
	if stored != 10 {
		t.Fatalf("stored = %d, want 10 raw", stored)
	}
	// Idempotent empty flush.
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.Reduction() != 1 {
		t.Fatalf("reduction = %v, want 1", a.Reduction())
	}
}

func TestArchiverErrors(t *testing.T) {
	if _, err := NewArchiver("x", nil, time.Second, ArchiverConfig{}); err == nil {
		t.Fatal("nil store should fail")
	}
	if _, err := NewArchiver("x", newStore(0), 0, ArchiverConfig{}); err == nil {
		t.Fatal("zero interval should fail")
	}
	a, err := NewArchiver("x", newStore(0), time.Second, ArchiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadBack(0); err == nil {
		t.Fatal("zero target rate should fail")
	}
	if _, err := a.ReadBack(1); err == nil {
		t.Fatal("read back of empty archive should fail")
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
