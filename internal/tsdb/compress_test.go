package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/series"
)

// TestCompressedStoreEquivalence pins the central compression contract:
// with unbounded retention (no eviction), the store returns exactly the
// points it accepted — same instants, bit-identical values, append order.
// For a monotonic stream that is every point; for a stream with pairs
// swapped, each swapped-back point is rejected with ErrOutOfOrder and the
// store holds exactly the accepted subsequence.
func TestCompressedStoreEquivalence(t *testing.T) {
	for name, outOfOrder := range map[string]bool{"monotonic": false, "out-of-order": true} {
		t.Run(name, func(t *testing.T) {
			db := New(Config{Shards: 1, Retention: RetentionConfig{CompressBlock: 32}})
			const id = "host/metric"
			pts := diurnalWorkload(500)
			if outOfOrder {
				// Swap pairs so some appends go backwards in time.
				for i := 0; i+1 < len(pts); i += 5 {
					pts[i], pts[i+1] = pts[i+1], pts[i]
				}
			}
			// The model: the accepted subsequence, in append order.
			var want []series.Point
			for i, p := range pts {
				late := len(want) > 0 && p.Time.Before(want[len(want)-1].Time)
				switch err := db.Append(id, p); {
				case late && err != ErrOutOfOrder:
					t.Fatalf("point %d goes backwards: Append = %v, want ErrOutOfOrder", i, err)
				case !late && err != nil:
					t.Fatalf("point %d: Append = %v", i, err)
				case !late:
					want = append(want, p)
				}
			}
			if outOfOrder == (len(want) == len(pts)) {
				t.Fatalf("accepted %d of %d points", len(want), len(pts))
			}
			if got := db.Stats().Appends; got != int64(len(want)) {
				t.Fatalf("Appends = %d, accepted %d", got, len(want))
			}
			got, err := db.Full(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Points) != len(want) {
				t.Fatalf("store returned %d points, accepted %d", len(got.Points), len(want))
			}
			for i := range want {
				if !got.Points[i].Time.Equal(want[i].Time) {
					t.Fatalf("point %d: time %v vs %v", i, got.Points[i].Time, want[i].Time)
				}
				if math.Float64bits(got.Points[i].Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("point %d: value %v vs %v", i, got.Points[i].Value, want[i].Value)
				}
			}
		})
	}
}

// TestRawBandNeverCollapses pins block-granular eviction on small
// stores: the block length is at most a quarter of the capacity, so once
// a store has filled, its raw size stays within
// (capacity − max(1, capacity/4), capacity] and every append is either
// still raw or was compacted. (A block as long as the capacity would
// seal the whole store and shed all of it on the next append.)
func TestRawBandNeverCollapses(t *testing.T) {
	for _, capacity := range []int{3, 8, 64, 100, 4096} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			db := New(Config{Shards: 1, Retention: RetentionConfig{RawCapacity: capacity, CompressBlock: 128}})
			const id = "host/metric"
			floor := capacity - max(1, capacity/4)
			for i := 1; i <= 3*capacity+7; i++ {
				db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
				st, err := db.SeriesStats(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.RawPoints > capacity || (i >= capacity && st.RawPoints <= floor) {
					t.Fatalf("after %d appends: raw store holds %d points, want within (%d, %d]", i, st.RawPoints, floor, capacity)
				}
				if got := st.Compacted + int64(st.RawPoints); got != st.Appends || st.Appends != int64(i) {
					t.Fatalf("after %d appends: compacted %d + raw %d = %d, appends %d", i, st.Compacted, st.RawPoints, got, st.Appends)
				}
			}
		})
	}
}

// TestCompressedCascade drives a small bounded store far past
// its capacity and checks the retention invariants survive
// block-granular eviction: no write ever fails, every append is either
// still raw or was compacted into the tiers, the raw store breathes
// within [capacity−block, capacity], and mid-history queries still
// answer from the tiers.
func TestCompressedCascade(t *testing.T) {
	db := New(Config{
		Shards: 1,
		Retention: RetentionConfig{
			RawCapacity: 64, TierCapacity: 16, Tiers: 2, CompressBlock: 16,
		},
	})
	const id = "host/metric"
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	const n = 5000
	for i := 0; i < n; i++ {
		db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i % 97)})
		if st, _ := db.SeriesStats(id); st.RawPoints > 64 {
			t.Fatalf("after %d appends: raw store holds %d points, capacity 64", i+1, st.RawPoints)
		}
	}
	st, err := db.SeriesStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Appends != n {
		t.Fatalf("appends %d, want %d", st.Appends, n)
	}
	if got := st.Compacted + int64(st.RawPoints); got != n {
		t.Fatalf("compacted %d + raw %d = %d, want every append accounted (%d)", st.Compacted, st.RawPoints, got, n)
	}
	if st.RawPoints < 64-16 {
		t.Fatalf("raw store holds %d points, want at least capacity-block (%d)", st.RawPoints, 64-16)
	}
	if st.CompressedBytes == 0 {
		t.Fatal("compressed store reports zero sealed bytes")
	}
	// A window just behind the raw store's retained band must answer
	// from the tiers alone (these tiny tiers only reach ~80 s back;
	// anything older was legitimately forgotten by the last tier).
	res, err := db.Query(id, st.RawOldest.Add(-30*time.Second), st.RawOldest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("behind-raw query returned nothing: the cascade lost the tiers")
	}
	for _, ts := range res.Tiers {
		if ts.Tier == 0 {
			t.Fatalf("behind-raw query read the raw store: %+v", res.Tiers)
		}
	}
}

// TestCompressedFootprint pins the reason the serving store compresses
// at all: on the canonical diurnal workload the sealed raw payload costs
// at most 2 bytes per point, against 32 bytes for a []Point slice.
func TestCompressedFootprint(t *testing.T) {
	db := New(Config{Shards: 1, Retention: RetentionConfig{CompressBlock: 128}})
	const id = "host/metric"
	for _, p := range diurnalWorkload(4096) {
		db.Append(id, p)
	}
	st := db.Stats()
	if st.CompressedEntries == 0 {
		t.Fatal("no sealed compressed entries")
	}
	bpp := float64(st.CompressedBytes) / float64(st.CompressedEntries)
	t.Logf("store-level footprint: %d entries, %d bytes, %.3f bytes/point",
		st.CompressedEntries, st.CompressedBytes, bpp)
	if bpp > 2 {
		t.Fatalf("compressed store costs %.3f bytes/point on the diurnal workload, want <= 2", bpp)
	}
}

// TestCompressedRetune checks the estimate→retain loop still works on a
// compressed store: a SetNyquistRate retune changes future tier widths
// without corrupting buckets sealed under the old grid.
func TestCompressedRetune(t *testing.T) {
	db := New(Config{
		Shards:    1,
		Retention: RetentionConfig{RawCapacity: 32, TierCapacity: 64, Tiers: 2, CompressBlock: 8},
	})
	const id = "host/metric"
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	i := 0
	appendN := func(n int) {
		for k := 0; k < n; k++ {
			db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
			i++
		}
	}
	appendN(500)
	db.SetNyquistRate(id, 0.01) // first tier ~83 s buckets
	appendN(500)
	db.SetNyquistRate(id, 0.1) // retune to ~8.3 s buckets
	appendN(500)
	res, err := db.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Time
	for k, p := range res.Points {
		if k > 0 && p.Time.Before(prev) {
			t.Fatalf("point %d at %v precedes %v after retune", k, p.Time, prev)
		}
		prev = p.Time
	}
	for _, a := range res.Aggregates {
		if a.Min > a.Max || a.Mean < a.Min-1e-9 || a.Mean > a.Max+1e-9 {
			t.Fatalf("bucket summary inconsistent after retune: %+v", a)
		}
	}
}

// TestRetuneUnchangedRateIsFree pins what live estimators rely on: they
// re-record a series' rate on every clean emission, mostly the rate it
// already has. Such a call must leave the tier grid exactly as it was —
// width, open bucket and the cached adjacent grid start that keeps the
// next bucket off Truncate's division — so a store retuned redundantly
// holds the same buckets as one that was not; and a retune that does
// change the rate rewrites the widths in place, without allocating.
func TestRetuneUnchangedRateIsFree(t *testing.T) {
	cfg := Config{
		Shards:    1,
		Retention: RetentionConfig{RawCapacity: 32, TierCapacity: 64, Tiers: 2, CompressBlock: 8},
	}
	plain, noisy := New(cfg), New(cfg)
	const id = "host/metric"
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1500; i++ {
		p := series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i%17) / 4}
		plain.Append(id, p)
		noisy.Append(id, p)
		if i == 400 || i == 900 {
			rate := 0.5 / float64(i/100)
			plain.SetNyquistRate(id, rate)
			noisy.SetNyquistRate(id, rate)
		}
		if i > 400 && i%8 == 0 {
			noisy.SetNyquistRate(id, noisy.NyquistRate(id))
		}
	}
	m := noisy.shards[0].series[id]
	type grid struct {
		width   time.Duration
		next    int64
		nextSet bool
		cur     bucket
	}
	grids := func() (out []grid) {
		for _, tr := range m.tiers {
			out = append(out, grid{tr.width, tr.next, tr.nextSet, tr.cur})
		}
		return out
	}
	before := grids()
	if len(before) != 2 || before[0].cur.start <= start.UnixNano() || !before[0].nextSet {
		t.Fatalf("precondition: tier 0 should hold an open bucket with a cached next grid start: %+v", before)
	}
	noisy.SetNyquistRate(id, m.nyquist)
	for k, g := range grids() {
		if g != before[k] {
			t.Fatalf("tier %d moved across a no-op retune:\n got %+v\nwant %+v", k, g, before[k])
		}
	}
	a, err := plain.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := noisy.Full(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("redundant retunes changed the stored buckets: %d vs %d points", len(a.Points), len(b.Points))
	}

	rates := [2]float64{0.05, 0.07}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		noisy.SetNyquistRate(id, rates[i%2])
		i++
	}); allocs != 0 {
		t.Fatalf("a retune allocates %.1f times, want 0", allocs)
	}
	if m.tiers[0].width != m.baseWidth() || m.tiers[1].width != 4*m.tiers[0].width {
		t.Fatalf("in-place retune left widths %v, %v", m.tiers[0].width, m.tiers[1].width)
	}
}

// TestCompressedConcurrent runs writers against query/stats readers on a
// compressed store — under -race this is the decode-under-RLock
// contract: block iteration must not share decode state.
func TestCompressedConcurrent(t *testing.T) {
	db := New(Config{
		Shards:    4,
		Retention: RetentionConfig{RawCapacity: 64, TierCapacity: 32, Tiers: 2, CompressBlock: 16},
	})
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev%02d/metric", i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					if res, err := db.Query(id, start, start.Add(time.Hour), 50); err == nil && len(res.Points) > 50 {
						t.Errorf("budget exceeded: %d", len(res.Points))
						return
					}
				}
				_ = db.Stats()
				_ = db.Snapshot()
			}
		}(r)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				db.Append(ids[w], series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
				if i%500 == 0 {
					db.SetNyquistRate(ids[w], 0.05)
				}
			}
		}(w)
	}
	// Writers finish, then readers are released.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
}

// TestBucketStoreStreamsItsOpenBlock holds the tier store to a plain
// []bucket model while its open block stays compressed: after every push
// each (whole range and a window), bounds, sampleTotal and the size equal
// the model's, every block that seals is byte for byte encodeBucketBlock
// of its run with no spare capacity, and every evicted block is the
// model's oldest run — across block lengths on both sides of the
// miniblock length, widths retuned mid-block, and stretches of
// non-decimal values that flip miniblocks to the XOR form and back.
func TestBucketStoreStreamsItsOpenBlock(t *testing.T) {
	pts := twoDecimalGauge(3 * 700)
	for _, bl := range []int{1, 2, 15, 16, 17, 128} {
		t.Run(fmt.Sprintf("blockLen=%d", bl), func(t *testing.T) {
			c := newCompBuckets(bl, 4*bl)
			var model []bucket
			forms := map[bool]bool{} // decimal?
			width := int64(3 * time.Second)
			start := blockEpoch.UnixNano()
			for i := 0; i < 700; i++ {
				if i%53 == 52 {
					width += int64(time.Second) // a retune: later buckets sit on a new grid
				}
				b := bucketOf(rawOf(pts[3*i]))
				b.merge(bucketOf(rawOf(pts[3*i+1])))
				b.merge(bucketOf(rawOf(pts[3*i+2])))
				if i%5 == 0 {
					b.count-- // counts flip between two values, as on a non-integer grid
				}
				if i/20%4 == 3 { // 20 buckets in every 80 are not decimal
					b.sum *= 1e40
				}
				b.start, b.end = start, start+width
				start += width

				sealedBefore := len(c.segs)
				evicted, ok := c.push(b)
				model = append(model, b)
				if ok {
					if !reflect.DeepEqual(bucketsOf(t, evicted), model[:bl]) {
						t.Fatalf("push %d: the evicted block is not the oldest %d buckets", i, bl)
					}
					model = model[bl:]
					sealedBefore--
				}
				if len(c.segs) > sealedBefore {
					seg := c.segs[len(c.segs)-1]
					run := model[len(model)-bl:]
					want := encodeBucketBlock(run)
					if !bytes.Equal(seg.data, want.data) || cap(seg.data) != len(seg.data) {
						t.Fatalf("push %d: the streamed block is %d bytes (cap %d), encodeBucketBlock of its run %d", i, len(seg.data), cap(seg.data), len(want.data))
					}
					want.data = seg.data
					if !reflect.DeepEqual(seg, want) {
						t.Fatalf("push %d: streamed block metadata %+v, want %+v", i, seg, want)
					}
					for it := seg.iter(); it.next(); {
						forms[it.decimal] = true
					}
				}

				var got []bucket
				c.each(math.MinInt64, math.MaxInt64, func(b bucket) { got = append(got, b) })
				if !reflect.DeepEqual(got, model) {
					t.Fatalf("push %d: each emits %d buckets that differ from the %d pushed", i, len(got), len(model))
				}
				lo, hi := model[len(model)/3].start, model[2*len(model)/3].end
				inWindow := func(bks []bucket) (out []bucket) {
					for _, b := range bks {
						if b.start < hi && b.end > lo {
							out = append(out, b)
						}
					}
					return out
				}
				got = got[:0]
				c.each(lo, hi, func(b bucket) { got = append(got, b) })
				if !reflect.DeepEqual(inWindow(got), inWindow(model)) {
					t.Fatalf("push %d: each over [%d, %d) misses or invents buckets", i, lo, hi)
				}
				var samples int64
				for _, b := range model {
					samples += b.count
				}
				oldest, newestEnd, ok := c.bounds()
				if !ok || oldest != model[0].start || newestEnd != b.end || c.sampleTotal() != samples || c.size() != len(model) {
					t.Fatalf("push %d: bounds [%d, %d) ok=%v, %d samples in %d buckets; the model spans [%d, %d) with %d in %d",
						i, oldest, newestEnd, ok, c.sampleTotal(), c.size(), model[0].start, b.end, samples, len(model))
				}
			}
			if !forms[true] || !forms[false] {
				t.Fatalf("sealed miniblocks took forms %v (decimal?): the run should exercise both", forms)
			}
		})
	}
}

// bucketsOf decodes a whole block.
func bucketsOf(t *testing.T, bb bucketBlock) (out []bucket) {
	t.Helper()
	if err := bb.each(func(b bucket) { out = append(out, b) }); err != nil {
		t.Fatal(err)
	}
	return out
}
