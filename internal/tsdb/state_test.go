package tsdb

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/series"
)

// warmSeries appends n two-decimal samples at 1 Hz to each of ids — the
// end-to-end benchmark's signal shape.
func warmSeries(db *DB, n int, ids ...string) {
	pts := twoDecimalGauge(n)
	for _, id := range ids {
		for _, p := range pts {
			if err := db.Append(id, p); err != nil {
				panic(err)
			}
		}
	}
}

// Default retention as nyquistd runs it: 4096 raw points, 1024 buckets in
// each of 2 tiers, 128-entry blocks. 15,360 appends fill all three stores
// and wrap each of them several times.
var defaultRetention = RetentionConfig{RawCapacity: 4096, TierCapacity: 1024, Tiers: 2, CompressBlock: 128}

const warmAppends = 15360

// accountedBytes sums what one series holds, part by part, from slice
// capacities and struct sizes (no malloc size-class rounding). A tier's
// open block is in two of the parts: its staged buckets and compressed
// payload under tails (openTailBytes), its chain state — inside the tier
// struct — under headers.
func accountedBytes(m *memSeries) (tails, payloads, index, headers int64) {
	tails = m.openTailBytes()
	headers = int64(unsafe.Sizeof(*m)) + int64(cap(m.tiers))*int64(unsafe.Sizeof(m.tiers[0]))
	index = int64(cap(m.raw.segs))*int64(unsafe.Sizeof(pointSeg{})) +
		int64(cap(m.raw.sealed))*int64(unsafe.Sizeof(Block{})) + int64(cap(m.raw.evictedSeqs))*8
	for i := range m.raw.segs {
		payloads += int64(cap(m.raw.segs[i].data))
	}
	for _, t := range m.tiers {
		headers += int64(unsafe.Sizeof(*t))
		index += int64(cap(t.segs)) * int64(unsafe.Sizeof(bucketBlock{}))
		for i := range t.segs {
			payloads += int64(cap(t.segs[i].data))
		}
	}
	return tails, payloads, index, headers
}

// TestSeriesStateBytes pins the store's per-series memory: the element
// sizes of the raw tail and the staged buckets, and the bytes one warm default-retention
// series accounts for — beside the heap it actually retains, size classes
// included — under a budget. scripts/size.sh prints the logged line.
func TestSeriesStateBytes(t *testing.T) {
	if got := unsafe.Sizeof(bucket{}); got != bucketBytes {
		t.Errorf("bucket is %d bytes, want %d", got, bucketBytes)
	}
	if got := unsafe.Sizeof(rawPoint{}); got != rawPointBytes {
		t.Errorf("raw tail point is %d bytes, want %d", got, rawPointBytes)
	}

	const streams = 64
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	warmSeries(New(Config{Shards: 1, Retention: defaultRetention}), warmAppends, "warm-up") // pooled encoder scratch
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("host%03d/metric", i)
	}
	before := heap()
	db := New(Config{Shards: 1, Retention: defaultRetention})
	warmSeries(db, warmAppends, ids...)
	perHeap := float64(heap()-before) / streams

	tails, payloads, index, headers := accountedBytes(db.shards[0].series[ids[0]])
	total := tails + payloads + index + headers
	t.Logf("state bytes per warm series (4096/1024/2 tiers/128, two-decimal): %d accounted = %d open blocks + %d sealed payloads + %d block index + %d headers; %.0f on the heap",
		total, tails, payloads, index, headers, perHeap)
	const budget = 24 << 10
	if total > budget {
		t.Errorf("a warm series accounts for %d B, budget %d", total, budget)
	}
	// Size classes and the shard map add to the accounted bytes; a tenth
	// over budget means something the accounting does not see.
	if perHeap > 1.1*budget {
		t.Errorf("a warm series retains %.0f B of heap, budget %d", perHeap, budget)
	}
	runtime.KeepAlive(db)
}

// TestOpenTailBytes pins the open-tail gauge on warm default-retention
// series: one 128-point raw tail, and per tier a miniblock of staged
// buckets plus the open block's compressed payload — a fraction of the
// 128 plain buckets (6,144 B) a tier's open block used to be.
func TestOpenTailBytes(t *testing.T) {
	db := New(Config{Shards: 2, Retention: defaultRetention})
	if got := db.Stats().OpenTailBytes; got != 0 {
		t.Fatalf("empty store: OpenTailBytes = %d", got)
	}
	ids := []string{"a", "b", "c"}
	warmSeries(db, warmAppends, ids...)
	const fixed = 128*rawPointBytes + 2*miniLen*bucketBytes
	if fixed != 2048+2*768 {
		t.Fatalf("per-series raw tail and staging are %d B, the sized figure is %d", fixed, 2048+2*768)
	}
	var want int64
	for _, id := range ids {
		m := db.shardFor(id).series[id]
		want += fixed
		for k, tr := range m.tiers {
			open := int64(cap(tr.stream.blk.data))
			// A warm block of 128 two-decimal buckets is ~700 B; the buffer
			// outlives its blocks, at whatever capacity append last grew it to.
			if open == 0 || open > 1024 {
				t.Fatalf("series %s tier %d: open block payload holds %d B allocated, want within (0, 1024]", id, k, open)
			}
			want += open
		}
	}
	if got := db.Stats().OpenTailBytes; got != want {
		t.Fatalf("OpenTailBytes = %d, want %d (raw tails, staged buckets and open payloads of 3 warm series)", got, want)
	}
}

// storeCaps is the allocated shape of one store: tail and index capacity.
type storeCaps struct{ active, segs int }

func seriesCaps(m *memSeries) []storeCaps {
	out := []storeCaps{{cap(m.raw.active), cap(m.raw.segs)}}
	for _, t := range m.tiers {
		out = append(out, storeCaps{cap(t.staged), cap(t.segs)})
	}
	return out
}

// TestStoreShapeIsBounded holds every store — raw and tiers — to its
// sized shape: once a store has filled and evicted for the first time,
// its tail never holds more than a block and its segment index sits at
// capacity/blockLen + 1 and never grows again. The restored case re-seals
// a 23-point tail under a smaller block length that no size class matches.
func TestStoreShapeIsBounded(t *testing.T) {
	at := func(i int) series.Point {
		return series.Point{Time: snapStart.Add(time.Duration(i) * time.Second), Value: float64(i%89) / 4}
	}
	check := func(t *testing.T, db *DB, from int) {
		t.Helper()
		rc := db.cfg.Retention
		m := db.shards[0].series["s"]
		var filled []storeCaps
		for i := from; i < from+40*rc.RawCapacity; i++ {
			if err := db.Append("s", at(i)); err != nil {
				t.Fatal(err)
			}
			if filled == nil && m.dropped > 0 { // the last tier has evicted: every store is full
				filled = seriesCaps(m)
			}
			if filled == nil {
				continue
			}
			for k, c := range seriesCaps(m) {
				capacity := rc.RawCapacity
				if k > 0 {
					capacity = rc.TierCapacity
				}
				bl := blockLen(rc.CompressBlock, capacity)
				if c.active > bl {
					t.Fatalf("append %d, store %d: tail capacity %d exceeds the block length %d", i, k, c.active, bl)
				}
				if c.segs != filled[k].segs || c.segs > capacity/bl+1 {
					t.Fatalf("append %d, store %d: segment index capacity %d (was %d at first fill, bound %d)", i, k, c.segs, filled[k].segs, capacity/bl+1)
				}
			}
		}
		if filled == nil {
			t.Fatal("the last tier never evicted: the stores did not fill")
		}
	}
	for _, rc := range []RetentionConfig{
		{RawCapacity: 4096, TierCapacity: 1024, Tiers: 2, CompressBlock: 128},
		{RawCapacity: 96, TierCapacity: 48, Tiers: 2, CompressBlock: 12}, // 12 × 16 B and 12 × 48 B round up to larger size classes
		{RawCapacity: 10, TierCapacity: 6, Tiers: 1, CompressBlock: 128}, // block length derived from capacity: 2 and 1
	} {
		t.Run(fmt.Sprintf("raw%d-tier%d-block%d", rc.RawCapacity, rc.TierCapacity, rc.CompressBlock), func(t *testing.T) {
			db := New(Config{Shards: 1, Retention: rc})
			db.SetNyquistRate("s", 1/(1.2*3)) // 3 s buckets, so the tiers fill at different paces
			check(t, db, 0)
		})
	}
	t.Run("restored under a smaller block length", func(t *testing.T) {
		src := New(Config{Shards: 1, Retention: RetentionConfig{RawCapacity: 96, TierCapacity: 48, Tiers: 2, CompressBlock: 24}})
		src.SetNyquistRate("s", 1/(1.2*3))
		n := 40*96 + 23
		for i := 0; i < n; i++ {
			if err := src.Append("s", at(i)); err != nil {
				t.Fatal(err)
			}
		}
		dst := New(Config{Shards: 1, Retention: RetentionConfig{RawCapacity: 96, TierCapacity: 48, Tiers: 2, CompressBlock: 12}})
		if err := src.ExportSeries(func(s SeriesSnapshot) error { dst.RestoreSeries(s); return nil }); err != nil {
			t.Fatal(err)
		}
		check(t, dst, n)
	})
}
