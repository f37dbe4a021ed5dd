// The storage representation of memSeries: the raw store and every
// summary tier hold a FIFO of sealed Gorilla blocks plus a small
// uncompressed active run. Eviction is block-granular — a full store
// sheds its oldest sealed block into the next tier — so the retained
// size breathes between capacity−blockLen and capacity instead of
// sitting exactly at capacity; what a store buys for that is roughly an
// order of magnitude more retained points per byte.

package tsdb

import (
	"sort"
	"time"

	"repro/internal/series"
)

// pointSeg is one sealed segment of the raw store: normally a
// Gorilla block, or (only when the codec refused the data — e.g. a
// timestamp outside the int64-nanosecond range) a verbatim fallback
// slice, so compression can never lose or reject a write.
type pointSeg struct {
	blk Block
	pts []series.Point // fallback; nil when blk is used
	// firstT/lastT bound the segment (fallback mode; blk carries its own).
	firstT, lastT time.Time
	// seq is the segment's process-unique decoded-block cache key,
	// assigned at seal (and on snapshot restore); 0 = not cacheable.
	seq uint64
}

func (s *pointSeg) size() int {
	if s.pts != nil {
		return len(s.pts)
	}
	return s.blk.Len()
}

func (s *pointSeg) first() time.Time {
	if s.pts != nil {
		return s.firstT
	}
	return s.blk.First()
}

func (s *pointSeg) last() time.Time {
	if s.pts != nil {
		return s.lastT
	}
	return s.blk.Last()
}

// each emits the segment's points in time order. Decode state is local,
// so concurrent readers may share a segment.
func (s *pointSeg) each(emit func(series.Point)) {
	if s.pts != nil {
		for _, p := range s.pts {
			emit(p)
		}
		return
	}
	it := s.blk.Iter()
	for it.Next() {
		emit(it.Point())
	}
}

// cachedWindow returns the segment's decoded points trimmed to [from, to),
// served from c (and populating c on a miss). ok is false when the segment
// cannot use the cache — nil cache, a fallback slice, or no seq — and the
// caller must fall back to a streaming decode. The returned slice aliases
// the shared cache entry and must never be mutated.
func (s *pointSeg) cachedWindow(c *blockCache, from, to time.Time) (_ []series.Point, ok bool) {
	if c == nil || s.seq == 0 || s.pts != nil {
		return nil, false
	}
	pts, hit := c.get(s.seq)
	if !hit {
		pts = make([]series.Point, 0, s.blk.Len())
		it := s.blk.Iter()
		for it.Next() {
			pts = append(pts, it.Point())
		}
		c.put(s.seq, pts)
	}
	return trimWindow(pts, from, to), true
}

// trimWindow narrows a time-ordered slice to [from, to) by binary search;
// zero bounds are unbounded.
func trimWindow(pts []series.Point, from, to time.Time) []series.Point {
	lo, hi := 0, len(pts)
	if !from.IsZero() {
		lo = sort.Search(len(pts), func(i int) bool { return !pts[i].Time.Before(from) })
	}
	if !to.IsZero() {
		hi = sort.Search(len(pts), func(i int) bool { return !pts[i].Time.Before(to) })
	}
	if lo >= hi {
		return nil
	}
	return pts[lo:hi]
}

// compPoints is the raw store: a FIFO of sealed segments plus an
// uncompressed active run of at most blockLen points.
type compPoints struct {
	blockLen int
	capacity int // max total points; 0 = unbounded (never evicts)
	segs     []pointSeg
	active   []series.Point
	n        int
	evbuf    []series.Point // reusable eviction decode buffer
	// sealed queues blocks sealed since the last takeSealed — the DB's
	// seal-hook feed. Fallback (uncompressable) segments never enter it:
	// strict serving stores cannot produce them, and lenient stores have
	// no hook.
	sealed []Block
	// evictedSeqs queues the cache keys of segments evicted from
	// retention since the last takeEvictedSeqs — the DB drains it (under
	// the shard lock) to invalidate the decoded-block cache.
	evictedSeqs []uint64
}

func (c *compPoints) size() int { return c.n }

// push appends one point. When the store exceeds its capacity the oldest
// sealed segment is evicted and returned, oldest point first; the slice
// is reused across calls and must be consumed before the next push.
func (c *compPoints) push(p series.Point) []series.Point {
	c.active = append(c.active, p)
	c.n++
	if len(c.active) >= c.blockLen {
		//nyquist:allow-alloc seal fires once per blockLen points; its cost amortizes to ~0 per append
		c.seal()
	}
	if c.capacity > 0 && c.n > c.capacity && len(c.segs) > 0 {
		//nyquist:allow-alloc eviction happens at capacity, once per sealed block
		return c.evictOldest()
	}
	return nil
}

// seal compresses the active run into a segment. Appends may arrive out
// of time order (the Append contract tolerates them); storage order
// inside a segment is by time, which preserves the point multiset — the
// query path orders across bands anyway.
func (c *compPoints) seal() {
	if len(c.active) == 0 {
		return
	}
	pts := c.active
	if !sort.SliceIsSorted(pts, func(a, b int) bool { return pts[a].Time.Before(pts[b].Time) }) {
		sort.SliceStable(pts, func(a, b int) bool { return pts[a].Time.Before(pts[b].Time) })
	}
	seg := pointSeg{}
	if blk, err := encodeBlockPooled(pts); err == nil {
		seg.blk = blk
		seg.seq = nextSegSeq()
		c.sealed = append(c.sealed, blk)
	} else {
		seg.pts = append([]series.Point(nil), pts...)
		seg.firstT = pts[0].Time
		seg.lastT = pts[len(pts)-1].Time
	}
	c.segs = append(c.segs, seg)
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

// evictOldest decodes and removes the oldest sealed segment, returning
// its points (reusable buffer). The segment's cache key is queued for
// invalidation (see takeEvictedSeqs).
func (c *compPoints) evictOldest() []series.Point {
	seg := c.segs[0]
	copy(c.segs, c.segs[1:])
	c.segs[len(c.segs)-1] = pointSeg{}
	c.segs = c.segs[:len(c.segs)-1]
	if seg.seq != 0 {
		c.evictedSeqs = append(c.evictedSeqs, seg.seq)
	}
	c.evbuf = c.evbuf[:0]
	seg.each(func(p series.Point) { c.evbuf = append(c.evbuf, p) })
	c.n -= seg.size()
	return c.evbuf
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

// bounds returns the oldest and newest retained timestamps.
func (c *compPoints) bounds() (oldest, newest time.Time, ok bool) {
	for i := range c.segs {
		s := &c.segs[i]
		if !ok || s.first().Before(oldest) {
			oldest = s.first()
		}
		if s.last().After(newest) {
			newest = s.last()
		}
		ok = true
	}
	for _, p := range c.active {
		if !ok || p.Time.Before(oldest) {
			oldest = p.Time
		}
		if p.Time.After(newest) {
			newest = p.Time
		}
		ok = true
	}
	return oldest, newest, ok
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
		if !to.IsZero() && !s.first().Before(to) {
			continue
		}
		if !from.IsZero() && s.last().Before(from) {
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
// the points they hold (fallback segments count as uncompressed).
func (c *compPoints) compressedFootprint() (bytes, points int64) {
	for i := range c.segs {
		if c.segs[i].pts == nil {
			bytes += int64(c.segs[i].blk.Size())
			points += int64(c.segs[i].blk.Len())
		}
	}
	return bytes, points
}

// bucketSeg is one sealed segment of a tier, mirroring
// pointSeg: a bucket block, or a verbatim fallback slice.
type bucketSeg struct {
	blk bucketBlock
	bks []bucket // fallback; nil when blk is used
	// firstT/lastEndT bound the segment (fallback mode).
	firstT, lastEndT time.Time
}

func (s *bucketSeg) size() int {
	if s.bks != nil {
		return len(s.bks)
	}
	return s.blk.n
}

func (s *bucketSeg) firstStart() time.Time {
	if s.bks != nil {
		return s.firstT
	}
	return time.Unix(0, s.blk.firstNano)
}

func (s *bucketSeg) lastEnd() time.Time {
	if s.bks != nil {
		return s.lastEndT
	}
	return time.Unix(0, s.blk.lastEnd)
}

// samples is the sum of the segment's bucket counts, available without
// decoding.
func (s *bucketSeg) samples() int64 {
	if s.bks != nil {
		var n int64
		for _, b := range s.bks {
			n += b.count
		}
		return n
	}
	return s.blk.samples
}

func (s *bucketSeg) each(emit func(bucket)) {
	if s.bks != nil {
		for _, b := range s.bks {
			emit(b)
		}
		return
	}
	_ = s.blk.each(emit) // decode errors impossible for self-encoded blocks
}

// compBuckets is the finalized-bucket store of one tier.
type compBuckets struct {
	blockLen int
	capacity int // max finalized buckets; 0 = unbounded
	segs     []bucketSeg
	active   []bucket
	n        int
	builder  *bucketBlockBuilder
	evbuf    []bucket
}

func (c *compBuckets) size() int { return c.n }

// push appends one finalized bucket, returning evicted buckets (oldest
// first, reusable buffer) once capacity is exceeded.
func (c *compBuckets) push(b bucket) []bucket {
	c.active = append(c.active, b)
	c.n++
	if len(c.active) >= c.blockLen {
		//nyquist:allow-alloc seal fires once per blockLen buckets; its cost amortizes to ~0 per append
		c.seal()
	}
	if c.capacity > 0 && c.n > c.capacity && len(c.segs) > 0 {
		//nyquist:allow-alloc eviction happens at capacity, once per sealed block
		return c.evictOldest()
	}
	return nil
}

func (c *compBuckets) seal() {
	if len(c.active) == 0 {
		return
	}
	if c.builder == nil {
		c.builder = newBucketBlockBuilder()
	} else {
		c.builder.reset()
	}
	seg := bucketSeg{}
	ok := true
	for _, b := range c.active {
		if err := c.builder.append(b); err != nil {
			ok = false
			break
		}
	}
	if ok {
		seg.blk = c.builder.finish()
	} else {
		seg.bks = append([]bucket(nil), c.active...)
		seg.firstT = c.active[0].start
		for _, b := range c.active {
			if b.end.After(seg.lastEndT) {
				seg.lastEndT = b.end
			}
		}
	}
	c.segs = append(c.segs, seg)
	c.active = c.active[:0]
}

func (c *compBuckets) evictOldest() []bucket {
	seg := c.segs[0]
	copy(c.segs, c.segs[1:])
	c.segs[len(c.segs)-1] = bucketSeg{}
	c.segs = c.segs[:len(c.segs)-1]
	c.evbuf = c.evbuf[:0]
	seg.each(func(b bucket) { c.evbuf = append(c.evbuf, b) })
	c.n -= seg.size()
	return c.evbuf
}

// bounds returns the oldest bucket start and newest coverage end.
func (c *compBuckets) bounds() (oldest, newestEnd time.Time, ok bool) {
	for i := range c.segs {
		s := &c.segs[i]
		if !ok || s.firstStart().Before(oldest) {
			oldest = s.firstStart()
		}
		if s.lastEnd().After(newestEnd) {
			newestEnd = s.lastEnd()
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
		if !from.IsZero() && !s.lastEnd().After(from) {
			continue
		}
		s.each(emit)
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
		n += c.segs[i].samples()
	}
	for _, b := range c.active {
		n += b.count
	}
	return n
}

func (c *compBuckets) compressedFootprint() (bytes, buckets int64) {
	for i := range c.segs {
		if c.segs[i].bks == nil {
			bytes += int64(c.segs[i].blk.size())
			buckets += int64(c.segs[i].blk.n)
		}
	}
	return bytes, buckets
}
