// The storage representation of memSeries: the raw store and every
// summary tier hold a FIFO of sealed Gorilla blocks plus a small
// uncompressed active run. Eviction is block-granular — a full store
// sheds its oldest sealed block into the next tier — so the retained
// size breathes between capacity−blockLen and capacity instead of
// sitting exactly at capacity; what a store buys for that is roughly an
// order of magnitude more retained points per byte.

package tsdb

import (
	"time"

	"repro/internal/series"
)

// pointSeg is one sealed segment of the raw store: a Gorilla block plus
// its process-unique decoded-block cache key, assigned at seal (and on
// snapshot restore).
type pointSeg struct {
	Block
	seq uint64
}

// each emits the segment's points in time order. Decode state is local,
// so concurrent readers may share a segment.
func (s *pointSeg) each(emit func(series.Point)) {
	it := s.Iter()
	for it.Next() {
		emit(it.Point())
	}
}

// cachedWindow returns the segment's decoded points trimmed to [from, to),
// served from c (and populating c on a miss). ok is false when there is
// no cache and the caller must fall back to a streaming decode. The
// returned slice aliases the shared cache entry and must never be mutated.
func (s *pointSeg) cachedWindow(c *blockCache, from, to time.Time) (_ []series.Point, ok bool) {
	if c == nil {
		return nil, false
	}
	pts, hit := c.get(s.seq)
	if !hit {
		pts = make([]series.Point, 0, s.Len())
		it := s.Iter()
		for it.Next() {
			pts = append(pts, it.Point())
		}
		c.put(s.seq, pts)
	}
	return trimWindow(pts, from, to), true
}

// compPoints is the raw store: a FIFO of sealed segments plus an
// uncompressed active run of at most blockLen points.
type compPoints struct {
	blockLen int
	capacity int // max total points; 0 = unbounded (never evicts)
	segs     []pointSeg
	active   []series.Point
	n        int
	// sealed queues blocks sealed since the last takeSealed — the DB's
	// seal-hook feed.
	sealed []Block
	// evictedSeqs queues the cache keys of segments evicted from
	// retention since the last takeEvictedSeqs — the DB drains it (under
	// the shard lock) to invalidate the decoded-block cache.
	evictedSeqs []uint64
}

func (c *compPoints) size() int { return c.n }

// push appends one point. When the store exceeds its capacity the oldest
// sealed segment leaves retention and is handed back for the caller to
// cascade into the tiers.
func (c *compPoints) push(p series.Point) (evicted Block, ok bool) {
	c.active = append(c.active, p)
	c.n++
	if len(c.active) >= c.blockLen {
		//nyquist:allow-alloc seal fires once per blockLen points; its cost amortizes to ~0 per append
		c.seal()
	}
	if c.capacity > 0 && c.n > c.capacity && len(c.segs) > 0 {
		return c.evictOldest(), true
	}
	return Block{}, false
}

// seal compresses the active run into a segment. memSeries.append admits
// only time-ordered, in-range points, so the codec cannot refuse the run;
// a refusal is a broken invariant and panics rather than drop the points
// or hide them in a second representation.
func (c *compPoints) seal() {
	if len(c.active) == 0 {
		return
	}
	blk, err := EncodeBlock(c.active)
	if err != nil {
		panic("tsdb: sealing an accepted run: " + err.Error())
	}
	c.segs = append(c.segs, pointSeg{Block: blk, seq: nextSegSeq()})
	c.sealed = append(c.sealed, blk)
	c.active = c.active[:0]
}

// takeSealed drains the sealed-block queue. The returned slice is reused
// by later seals; the caller (the DB, under the shard lock) must consume
// it before releasing the lock.
func (c *compPoints) takeSealed() []Block {
	if len(c.sealed) == 0 {
		return nil
	}
	out := c.sealed
	c.sealed = c.sealed[:0]
	return out
}

// evictOldest removes and returns the oldest sealed segment. Its cache
// key is queued for invalidation (see takeEvictedSeqs).
func (c *compPoints) evictOldest() Block {
	seg := c.segs[0]
	copy(c.segs, c.segs[1:])
	c.segs[len(c.segs)-1] = pointSeg{}
	c.segs = c.segs[:len(c.segs)-1]
	c.evictedSeqs = append(c.evictedSeqs, seg.seq)
	c.n -= seg.Len()
	return seg.Block
}

// takeEvictedSeqs drains the queue of cache keys whose segments left
// retention. The returned slice is reused by later evictions; the
// caller (the DB, under the shard lock) must consume it before
// releasing the lock.
func (c *compPoints) takeEvictedSeqs() []uint64 {
	if len(c.evictedSeqs) == 0 {
		return nil
	}
	out := c.evictedSeqs
	c.evictedSeqs = c.evictedSeqs[:0]
	return out
}

// bounds returns the oldest and newest retained timestamps. Storage is
// in append order, which the strict-append contract makes time order.
func (c *compPoints) bounds() (oldest, newest time.Time, ok bool) {
	switch {
	case len(c.segs) > 0:
		oldest = c.segs[0].First()
	case len(c.active) > 0:
		oldest = c.active[0].Time
	default:
		return oldest, newest, false
	}
	if n := len(c.active); n > 0 {
		return oldest, c.active[n-1].Time, true
	}
	return oldest, c.segs[len(c.segs)-1].Last(), true
}

// each emits every retained point whose segment can overlap [from, to)
// (zero bounds are unbounded). Sealed segments fully outside the window
// are skipped without decoding. A non-nil cache serves repeated decodes
// of hot segments from memory: cache-served segments are handed to bulk
// as one window-trimmed, already-filtered slice (the query hot path
// appends it with a single copy instead of a closure call per point);
// everything else streams through emit, which the caller still filters.
func (c *compPoints) each(from, to time.Time, cache *blockCache, bulk func([]series.Point), emit func(series.Point)) {
	for i := range c.segs {
		s := &c.segs[i]
		if !to.IsZero() && !s.First().Before(to) {
			continue
		}
		if !from.IsZero() && s.Last().Before(from) {
			continue
		}
		if pts, ok := s.cachedWindow(cache, from, to); ok {
			if len(pts) > 0 {
				bulk(pts)
			}
			continue
		}
		s.each(emit)
	}
	for _, p := range c.active {
		emit(p)
	}
}

// compressedFootprint reports the sealed compressed payload: bytes and
// the points they hold.
func (c *compPoints) compressedFootprint() (bytes, points int64) {
	for i := range c.segs {
		bytes += int64(c.segs[i].Size())
		points += int64(c.segs[i].Len())
	}
	return bytes, points
}

// compBuckets is the finalized-bucket store of one tier: a FIFO of sealed
// bucket blocks plus an uncompressed active run.
type compBuckets struct {
	blockLen int
	capacity int // max finalized buckets; 0 = unbounded
	segs     []bucketBlock
	active   []bucket
	n        int
}

func (c *compBuckets) size() int { return c.n }

// push appends one finalized bucket, handing back the oldest sealed
// block once capacity is exceeded.
func (c *compBuckets) push(b bucket) (evicted bucketBlock, ok bool) {
	c.active = append(c.active, b)
	c.n++
	if len(c.active) >= c.blockLen {
		//nyquist:allow-alloc seal fires once per blockLen buckets; its cost amortizes to ~0 per append
		c.seal()
	}
	if c.capacity > 0 && c.n > c.capacity && len(c.segs) > 0 {
		return c.evictOldest(), true
	}
	return bucketBlock{}, false
}

// seal compresses the active run into a bucket block. As with the raw
// store, the append door guarantees it encodes: bucket starts only
// increase within a tier and both bounds stay in range.
func (c *compBuckets) seal() {
	if len(c.active) == 0 {
		return
	}
	blk, err := encodeBucketBlock(c.active)
	if err != nil {
		panic("tsdb: sealing finalized buckets: " + err.Error())
	}
	c.segs = append(c.segs, blk)
	c.active = c.active[:0]
}

func (c *compBuckets) evictOldest() bucketBlock {
	seg := c.segs[0]
	copy(c.segs, c.segs[1:])
	c.segs[len(c.segs)-1] = bucketBlock{}
	c.segs = c.segs[:len(c.segs)-1]
	c.n -= seg.n
	return seg
}

// bounds returns the oldest bucket start and newest coverage end.
func (c *compBuckets) bounds() (oldest, newestEnd time.Time, ok bool) {
	for i := range c.segs {
		s := &c.segs[i]
		if !ok || s.firstStart().Before(oldest) {
			oldest = s.firstStart()
		}
		if s.coverageEnd().After(newestEnd) {
			newestEnd = s.coverageEnd()
		}
		ok = true
	}
	for _, b := range c.active {
		if !ok || b.start.Before(oldest) {
			oldest = b.start
		}
		if b.end.After(newestEnd) {
			newestEnd = b.end
		}
		ok = true
	}
	return oldest, newestEnd, ok
}

// each emits finalized buckets in order, skipping sealed segments whose
// coverage cannot intersect [from, to); zero bounds are unbounded.
func (c *compBuckets) each(from, to time.Time, emit func(bucket)) {
	for i := range c.segs {
		s := &c.segs[i]
		if !to.IsZero() && !s.firstStart().Before(to) {
			continue
		}
		if !from.IsZero() && !s.coverageEnd().After(from) {
			continue
		}
		_ = s.each(emit) // decode errors impossible for self-encoded blocks
	}
	for _, b := range c.active {
		emit(b)
	}
}

// sampleTotal sums every finalized bucket's count without decoding any
// sealed block — the stats path runs under the shard lock.
func (c *compBuckets) sampleTotal() int64 {
	var n int64
	for i := range c.segs {
		n += c.segs[i].samples
	}
	for _, b := range c.active {
		n += b.count
	}
	return n
}

func (c *compBuckets) compressedFootprint() (bytes, buckets int64) {
	for i := range c.segs {
		bytes += int64(c.segs[i].size())
		buckets += int64(c.segs[i].n)
	}
	return bytes, buckets
}
