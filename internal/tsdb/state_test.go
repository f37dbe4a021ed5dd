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
	index = int64(cap(m.raw.segs)+cap(m.raw.sealed)) * int64(unsafe.Sizeof(Block{}))
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

// storeHeap is the live heap after a collection.
func storeHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSeriesStateBytes pins the store's per-series memory in two shapes of
// default retention: a warm series, every store full and wrapped, and the
// high-cardinality benchmark's series, 512 points that never leave the raw
// store. Each accounts, part by part, for under a budget, beside the heap
// it actually retains, size classes included. It also pins the staged
// bucket's element size. scripts/size.sh prints the logged lines.
func TestSeriesStateBytes(t *testing.T) {
	if got := unsafe.Sizeof(bucket{}); got != bucketBytes {
		t.Errorf("bucket is %d bytes, want %d", got, bucketBytes)
	}
	warmSeries(New(Config{Shards: 1, Retention: defaultRetention}), warmAppends, "warm-up") // pooled encoder scratch
	for _, shape := range []struct {
		name    string
		appends int
		budget  int64
	}{
		{"warm series (4096/1024/2 tiers/128, two-decimal)", warmAppends, 24 << 10},
		{"highcard series (4096/1024/2 tiers/128, 512 two-decimal points, no tier)", 512, 2 << 10},
	} {
		const streams = 64
		ids := make([]string, streams)
		for i := range ids {
			ids[i] = fmt.Sprintf("host%03d/metric", i)
		}
		before := storeHeap()
		db := New(Config{Shards: 1, Retention: defaultRetention})
		warmSeries(db, shape.appends, ids...)
		perHeap := float64(storeHeap()-before) / streams

		tails, payloads, index, headers := accountedBytes(db.shards[0].series[ids[0]])
		total := tails + payloads + index + headers
		t.Logf("state bytes per %s: %d accounted = %d open blocks + %d sealed payloads + %d block index + %d headers; %.0f on the heap",
			shape.name, total, tails, payloads, index, headers, perHeap)
		if total > shape.budget {
			t.Errorf("a %s accounts for %d B, budget %d", shape.name, total, shape.budget)
		}
		// Size classes and the shard map add to the accounted bytes; a
		// tenth over budget means something the accounting does not see.
		if perHeap > 1.1*float64(shape.budget) {
			t.Errorf("a %s retains %.0f B of heap, budget %d", shape.name, perHeap, shape.budget)
		}
		runtime.KeepAlive(db)
	}
}

// TestEvictionRetainsNoState drives a store configured as
// fleet.NewTieredStore builds one through 1,024 and then 2,048 raw-block
// evictions, and requires that the series' bookkeeping — open blocks,
// block indexes and queues, headers — holds no more bytes after the
// second thousand than after the first: nothing may be queued per
// evicted block that no reader drains.
func TestEvictionRetainsNoState(t *testing.T) {
	ret := RetentionConfig{RawCapacity: 256, TierCapacity: 64, Tiers: 2, CompressBlock: 16}
	db := New(Config{Retention: ret})
	const id = "evicting"
	per := int64(blockLen(ret.CompressBlock, ret.RawCapacity))
	i := 0
	stateAfter := func(evictions int64) (tails, index, headers int64) {
		for m := db.shardFor(id).series[id]; m == nil || m.compacted < evictions*per; m = db.shardFor(id).series[id] {
			if err := db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i%97) / 4}); err != nil {
				t.Fatal(err)
			}
			i++
		}
		tails, _, index, headers = accountedBytes(db.shardFor(id).series[id])
		return tails, index, headers
	}
	const n = 1024
	t1, i1, h1 := stateAfter(n)
	t2, i2, h2 := stateAfter(2 * n)
	t.Logf("after %d / %d evictions: open blocks %d / %d B, block index %d / %d B, headers %d / %d B", n, 2*n, t1, t2, i1, i2, h1, h2)
	if t2 > t1 || i2 > i1 || h2 > h1 {
		t.Errorf("series state grew between %d and %d evictions: open blocks %d → %d, index %d → %d, headers %d → %d B", n, 2*n, t1, t2, i1, i2, h1, h2)
	}
}

// maxRunBytes bounds the raw run's buffer on two-decimal telemetry: a
// 128-point run codes in under 300 B, and append's doubling leaves the
// buffer at 512 — a quarter of the 2,048 B of plain points it replaced.
const maxRunBytes = 512

// TestOpenTailBytes pins the open-tail gauge on warm default-retention
// series: the raw run's buffer — at the capacity its first run gave it,
// at most maxRunBytes — and per tier a miniblock of staged buckets plus
// the open block's compressed payload, a fraction of the 128 plain
// buckets (6,144 B) a tier's open block used to be.
func TestOpenTailBytes(t *testing.T) {
	db := New(Config{Shards: 2, Retention: defaultRetention})
	if got := db.Stats().OpenTailBytes; got != 0 {
		t.Fatalf("empty store: OpenTailBytes = %d", got)
	}
	ids := []string{"a", "b", "c"}
	pts := twoDecimalGauge(warmAppends)
	firstFill := map[string]int{}
	for _, id := range ids {
		for i, p := range pts {
			if i == 128 {
				firstFill[id] = cap(db.shardFor(id).series[id].raw.run.w.buf)
			}
			if err := db.Append(id, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	const staged = 2 * miniLen * bucketBytes
	if staged != 2*768 {
		t.Fatalf("per-series staging is %d B, the sized figure is %d", staged, 2*768)
	}
	var want int64
	for _, id := range ids {
		m := db.shardFor(id).series[id]
		run := cap(m.raw.run.w.buf)
		if run == 0 || run > maxRunBytes || run != firstFill[id] {
			t.Fatalf("series %s: the raw run's buffer holds %d B allocated, want its first fill's %d, within (0, %d]", id, run, firstFill[id], maxRunBytes)
		}
		want += staged + int64(run)
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
		t.Fatalf("OpenTailBytes = %d, want %d (raw runs, staged buckets and open payloads of 3 warm series)", got, want)
	}
}

// storeCaps is the allocated shape of one store: open-block and index
// capacity — the raw run's buffer in bytes, a tier's staged buckets in
// entries.
type storeCaps struct{ open, segs int }

func seriesCaps(m *memSeries) []storeCaps {
	out := []storeCaps{{cap(m.raw.run.w.buf), cap(m.raw.segs)}}
	for _, t := range m.tiers {
		out = append(out, storeCaps{cap(t.staged), cap(t.segs)})
	}
	return out
}

// TestStoreShapeIsBounded holds every store — raw and tiers — to its
// sized shape: once every store has filled and evicted, the raw run's
// buffer never gives back the capacity it had then — no seal swaps it —
// and stays within maxRunBytes on these two-decimal values (only a run
// longer than any before it grows it: 2-point runs do, once, at append
// 83), a tier stages at most a block, and every segment index sits at
// capacity/blockLen + 1 and never grows again. The restored case re-seals
// a 23-point run under a smaller block length.
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
				if k == 0 && (c.open < filled[0].open || c.open > maxRunBytes) {
					t.Fatalf("append %d: the raw run's buffer holds %d B (was %d at first fill, bound %d)", i, c.open, filled[0].open, maxRunBytes)
				}
				if k > 0 && c.open > bl {
					t.Fatalf("append %d, store %d: staging capacity %d exceeds the block length %d", i, k, c.open, bl)
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
		{RawCapacity: 96, TierCapacity: 48, Tiers: 2, CompressBlock: 12}, // 12 × 48 B rounds up to a larger size class
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
