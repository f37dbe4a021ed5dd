package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/series"
)

// singleMutexStore replicates the seed store exactly — one global
// mutex in front of a map of append-only series, with the capacity
// bookkeeping the seed performed — as the baseline the sharded engine is
// measured against.
type singleMutexStore struct {
	mu       sync.Mutex
	data     map[string]*series.Series
	points   int
	capacity int
}

func newSingleMutexStore() *singleMutexStore {
	return &singleMutexStore{data: make(map[string]*series.Series)}
}

var errBenchStoreFull = fmt.Errorf("store capacity exceeded")

func (s *singleMutexStore) append(id string, p series.Point) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capacity > 0 && s.points >= s.capacity {
		return errBenchStoreFull
	}
	ser, ok := s.data[id]
	if !ok {
		ser = &series.Series{}
		s.data[id] = ser
	}
	ser.Append(p)
	s.points++
	return nil
}

// BenchmarkStoreAppendParallel is the write-path scaling comparison: the
// seed's single-mutex store against the sharded engine at 1, 4 and 16
// shards, under 8×GOMAXPROCS concurrent writers on distinct series.
func BenchmarkStoreAppendParallel(b *testing.B) {
	parallelAppend := func(b *testing.B, setup func(id string), appendFn func(id string, p series.Point)) {
		var ctr int64
		b.SetParallelism(64)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			id := fmt.Sprintf("dev%03d/metric", atomic.AddInt64(&ctr, 1))
			if setup != nil {
				setup(id)
			}
			i := 0
			for pb.Next() {
				appendFn(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
				i++
			}
		})
	}

	b.Run("single-mutex", func(b *testing.B) {
		s := newSingleMutexStore()
		parallelAppend(b, nil, func(id string, p series.Point) { _ = s.append(id, p) })
	})
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tsdb/shards=%d", shards), func(b *testing.B) {
			db := New(Config{Shards: shards})
			parallelAppend(b, nil, func(id string, p series.Point) { _ = db.Append(id, p) })
		})
	}
	// The production shape: bounded stores with the compaction cascade
	// active and retention tuned by a Nyquist estimate (the
	// estimate→retain loop), still lock-scaled across shards. One-second
	// polls against a 0.05 Hz requirement bucket ~17 samples per
	// lossless-tier interval.
	b.Run("tsdb/shards=16/compacting", func(b *testing.B) {
		db := New(Config{Shards: 16, Retention: RetentionConfig{RawCapacity: 4096, TierCapacity: 1024}})
		parallelAppend(b, func(id string) { db.SetNyquistRate(id, 0.05) }, func(id string, p series.Point) { _ = db.Append(id, p) })
	})
}

// BenchmarkQueryRange measures tier-stitched range queries against a
// bounded, compacted store: a recent window served by the raw store alone
// and a full-history window stitched across tiers with a point budget.
func BenchmarkQueryRange(b *testing.B) {
	db := New(Config{Retention: RetentionConfig{RawCapacity: 1024, TierCapacity: 512, Tiers: 2}})
	const n = 20000
	for s := 0; s < 8; s++ {
		id := fmt.Sprintf("dev%02d/metric", s)
		db.SetNyquistRate(id, 0.05)
		for i := 0; i < n; i++ {
			db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
		}
	}
	b.Run("recent-raw", func(b *testing.B) {
		b.ReportAllocs()
		from, to := start.Add((n-512)*time.Second), start.Add(n*time.Second)
		for i := 0; i < b.N; i++ {
			res, err := db.Query("dev00/metric", from, to, 0)
			if err != nil {
				b.Fatal(err)
			}
			if res.Thinned {
				b.Fatal("raw window should not thin")
			}
		}
	})
	b.Run("history-budget100", func(b *testing.B) {
		b.ReportAllocs()
		to := start.Add(n * time.Second)
		for i := 0; i < b.N; i++ {
			res, err := db.Query("dev00/metric", start, to, 100)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Points) > 100 {
				b.Fatal("budget exceeded")
			}
		}
	})
}

// BenchmarkQueryHot measures the hot read path — the dashboard shape:
// a recent window answered by the raw store of a production-shape
// store while the rest of history sits in sealed blocks and tiers.
// Per-op latencies are collected individually and reported as p50/p99
// (ns): a mean hides exactly the tail a serving read path is judged by.
func BenchmarkQueryHot(b *testing.B) {
	db := New(Config{Shards: 16, Retention: RetentionConfig{
		RawCapacity: 4096, TierCapacity: 1024, Tiers: 2, CompressBlock: 128,
	}})
	const n = 20000
	ids := make([]string, 8)
	for s := range ids {
		ids[s] = fmt.Sprintf("dev%02d/metric", s)
		db.SetNyquistRate(ids[s], 0.05)
		for i := 0; i < n; i++ {
			db.Append(ids[s], series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i % 97)})
		}
	}
	from, to := start.Add((n-512)*time.Second), start.Add(n*time.Second)
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res, err := db.Query(ids[i%len(ids)], from, to, 0)
		lat = append(lat, time.Since(t0))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("hot window returned no points")
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns/op")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns/op")
}

// benchSealedStore builds the production store shape with most history in
// sealed Gorilla blocks, and returns a query window that sits entirely in
// the sealed region (past the active run, inside the raw ring), so every
// query must decode blocks.
func benchSealedStore(b *testing.B) (*DB, []string, time.Time, time.Time) {
	b.Helper()
	db := New(Config{Shards: 16, Retention: RetentionConfig{
		RawCapacity: 4096, TierCapacity: 1024, Tiers: 2, CompressBlock: 128,
	}})
	const n = 20000
	// Quantized multi-tone values (the repo's canonical sensor workload,
	// cf. diurnalWorkload): integer-valued ramps XOR to almost nothing and
	// would make the decode this pair of benchmarks contrasts artificially
	// free.
	const quant = 1.0 / 64
	ids := make([]string, 8)
	for s := range ids {
		ids[s] = fmt.Sprintf("dev%02d/metric", s)
		db.SetNyquistRate(ids[s], 0.05)
		for i := 0; i < n; i++ {
			v := 40 + 8*math.Sin(2*math.Pi*float64(i)/600) + 3*math.Sin(2*math.Pi*float64(i)/97+1)
			db.Append(ids[s], series.Point{
				Time:  start.Add(time.Duration(i) * time.Second),
				Value: math.Round(v/quant) * quant,
			})
		}
	}
	// The raw ring holds the newest 4096 points; the newest ≤128 sit in
	// the active (undecoded-cost-free) run. [n-2048, n-1024) is sealed
	// history: ~8 blocks per series that must decompress to answer.
	from, to := start.Add((n-2048)*time.Second), start.Add((n-1024)*time.Second)
	return db, ids, from, to
}

// reportTail reports per-op p50/p99 latencies (ns) from individual
// timings.
func reportTail(b *testing.B, lat []time.Duration) {
	b.Helper()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns/op")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns/op")
}

// BenchmarkQueryCold is the sealed-history read path: every query pays
// the Gorilla decode for every block in the window.
func BenchmarkQueryCold(b *testing.B) {
	db, ids, from, to := benchSealedStore(b)
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res, err := db.Query(ids[i%len(ids)], from, to, 0)
		lat = append(lat, time.Since(t0))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("sealed window returned no points")
		}
	}
	b.StopTimer()
	reportTail(b, lat)
}

// BenchmarkQueryMulti is the fan-in read path: one QueryMatch answers the
// whole 8-series family over the sealed window under a shared point
// budget — the multi-panel dashboard shape.
func BenchmarkQueryMulti(b *testing.B) {
	db, ids, from, to := benchSealedStore(b)
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		mres := db.QueryMatch("dev*", from, to, 8*1024, 64)
		lat = append(lat, time.Since(t0))
		if mres.Matches != len(ids) || len(mres.Results) != len(ids) {
			b.Fatalf("matched %d/%d series, want %d", mres.Matches, len(mres.Results), len(ids))
		}
	}
	b.StopTimer()
	reportTail(b, lat)
}

// codecWorkloads are the two value shapes the codec's modes exist for:
// the 1/64-quantized diurnal gauge (stays on the XOR chain) and the
// two-decimal gauge (decimal column).
var codecWorkloads = []struct {
	name string
	gen  func(int) []series.Point
}{{"diurnal", diurnalWorkload}, {"two-decimal", twoDecimalGauge}}

// BenchmarkBlockEncode measures the seal path in store-sized runs of 128
// points; bytes/point is reported as a custom metric.
func BenchmarkBlockEncode(b *testing.B) {
	for _, w := range codecWorkloads {
		b.Run(w.name, func(b *testing.B) {
			pts := w.gen(4096)
			b.ReportAllocs()
			b.ResetTimer()
			var size int
			for i := 0; i < b.N; i++ {
				size = 0
				for run := pts; len(run) > 0; run = run[128:] {
					blk, err := EncodeBlock(run[:128])
					if err != nil {
						b.Fatal(err)
					}
					size += blk.Size()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(size)/float64(len(pts)), "bytes/point")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
		})
	}
}

// BenchmarkBlockDecode measures the query-path decode cost over the same
// 128-point blocks.
func BenchmarkBlockDecode(b *testing.B) {
	for _, w := range codecWorkloads {
		b.Run(w.name, func(b *testing.B) {
			pts := w.gen(4096)
			var blks []Block
			for run := pts; len(run) > 0; run = run[128:] {
				blk, err := EncodeBlock(run[:128])
				if err != nil {
					b.Fatal(err)
				}
				blks = append(blks, blk)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, blk := range blks {
					it := blk.Iter()
					for it.Next() {
						n++
					}
				}
				if n != len(pts) {
					b.Fatalf("decoded %d of %d", n, len(pts))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
		})
	}
}

// BenchmarkCompressedAppend measures the engine's append hot path on one
// hot series of the production shape.
func BenchmarkCompressedAppend(b *testing.B) {
	db := New(Config{Shards: 16, Retention: RetentionConfig{
		RawCapacity: 4096, TierCapacity: 1024, Tiers: 2, CompressBlock: 128,
	}})
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := "bench/series"
		i := 0
		for pb.Next() {
			db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i % 97)})
			i++
		}
	})
}

// foldTier buckets pts on a width grid the way a first tier does: one
// bucket per occupied grid cell.
func foldTier(pts []series.Point, width time.Duration) []bucket {
	var bks []bucket
	for _, p := range pts {
		cell := p.Time.UnixNano() / int64(width) * int64(width)
		if n := len(bks); n > 0 && bks[n-1].start == cell {
			bks[n-1].merge(bucketOf(rawOf(p)))
			continue
		}
		b := bucketOf(rawOf(p))
		b.start, b.end = cell, cell+int64(width)
		bks = append(bks, b)
	}
	return bks
}

// bucketCodecWorkloads are the two tiers the bucket codec's forms exist
// for, in whole 128-bucket blocks. The two-decimal gauge at 1 Hz on a
// 1.5 s grid — counts flip between 1 and 2, as on a tier whose width the
// Nyquist estimate sized — takes the joint decimal form throughout. The
// 1/64-quantized diurnal gauge, two 30 s polls to a bucket, stays on the
// XOR chains for most of its miniblocks.
func bucketCodecWorkloads() map[string][]bucket {
	return map[string][]bucket{
		"two-decimal": foldTier(twoDecimalGauge(6144), 1500*time.Millisecond)[:4096],
		"diurnal":     foldTier(diurnalWorkload(8192), time.Minute),
	}
}

// BenchmarkBucketBlockEncode measures the tier store's write path: each
// bucket pushed once through the open block's miniblock encoder, a block
// sealed every 128.
func BenchmarkBucketBlockEncode(b *testing.B) {
	for name, bks := range bucketCodecWorkloads() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				size = 0
				for run := bks; len(run) > 0; run = run[128:] {
					size += encodeBucketBlock(run[:128]).size()
				}
			}
			b.ReportMetric(float64(size)/float64(len(bks)), "bytes/bucket")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bks)), "ns/bucket")
		})
	}
}

// BenchmarkBucketBlockDecode measures the read side — queries, export
// and the cascade all iterate bucket blocks — over the same blocks.
func BenchmarkBucketBlockDecode(b *testing.B) {
	for name, bks := range bucketCodecWorkloads() {
		b.Run(name, func(b *testing.B) {
			var blks []bucketBlock
			for run := bks; len(run) > 0; run = run[128:] {
				blks = append(blks, encodeBucketBlock(run[:128]))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, blk := range blks {
					it := blk.iter()
					for it.next() {
						n++
					}
				}
				if n != len(bks) {
					b.Fatalf("decoded %d of %d", n, len(bks))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bks)), "ns/bucket")
		})
	}
}
