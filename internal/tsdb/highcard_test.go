package tsdb_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// TestHighcardStateAccounted holds the per-series accounting to the heap
// on the high-cardinality benchmark's shape: 512 two-decimal points at
// 1 Hz per series, interleaved across the fleet, under nyquistd's default
// retention (so no tier), with the ingest estimator retuning the store as
// nyquistd wires the two. The named parts — the store's (the parts
// TestSeriesStateBytes logs) and the estimator's StateBytes (hook state
// with the retention hold, and each analysis window's ring and header) —
// must cover at least 90 % of the heap the pair retains per series; ids,
// map entries and size classes are the rest. scripts/size.sh prints the
// logged line.
func TestHighcardStateAccounted(t *testing.T) {
	const (
		fleet  = 1024
		points = 512
	)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	t0 := time.Unix(1_700_000_000, 0)
	before := heap()
	db := tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: 4096, TierCapacity: 1024, Tiers: 2, CompressBlock: 128}})
	est := monitor.NewIngestEstimator(db, monitor.IngestConfig{MaxSeries: 1_000_000})
	ids := make([]string, fleet)
	for i := range ids {
		ids[i] = fmt.Sprintf("dash/rack%03d/dev%02d/temp", i/16, i%16)
	}
	for k := 0; k < points; k++ {
		for i, id := range ids {
			v := 50 + 8*math.Sin(float64(k)/float64(5+i%13)) + 3*math.Sin(float64(k)/3+float64(i))
			p := series.Point{Time: t0.Add(time.Duration(k) * time.Second), Value: math.Round(v*100) / 100}
			if err := db.Append(id, p); err != nil {
				t.Fatal(err)
			}
			est.Observe(id, p)
		}
	}
	perHeap := float64(heap()-before) / fleet
	store := float64(tsdb.StoreStateBytes(db)) / fleet
	estimator := float64(est.StateBytes()) / fleet
	named := store + estimator
	t.Logf("highcard state bytes per series: %.0f named = %.0f store + %.0f estimator (retention hold included); %.0f on the heap, %.1f %% named",
		named, store, estimator, perHeap, 100*named/perHeap)
	if named < 0.9*perHeap {
		t.Errorf("the named parts cover %.0f of the %.0f B a series retains (%.1f %%), want at least 90 %%", named, perHeap, 100*named/perHeap)
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(est)
}
