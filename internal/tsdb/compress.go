// The storage representation of memSeries: the raw store and every
// summary tier hold a FIFO of sealed blocks plus one open block that is
// compressed as it fills — a run of points coded on arrival in the raw
// store, a stream of miniblocks plus a few staged buckets in a tier.
// Eviction is block-granular — a full store sheds its oldest sealed block
// into the next tier — so the retained size breathes between
// capacity−blockLen and capacity instead of sitting exactly at capacity;
// what a store buys for that is roughly an order of magnitude more
// retained points per byte.

package tsdb

import "math"

// appendSeg appends a sealed segment to a store's FIFO. A store of full
// blocks never holds more than capacity/blockLen + 1 of them (a seal lands
// the newest before the eviction it triggers sheds the oldest), so a full
// index doubles only up to that bound: a sparse series keeps a small
// index and a warm one settles at exactly the bound instead of the next
// power of two. An unbounded store, and one already past the bound (a
// restore into smaller capacities, force-sealed short blocks), grow as
// append does.
func appendSeg[T any](segs []T, seg T, capacity, blockLen int) []T {
	if bound := capacity/blockLen + 1; capacity > 0 && len(segs) == cap(segs) && len(segs) < bound {
		grown := make([]T, len(segs), min(max(2*len(segs), 4), bound))
		copy(grown, segs)
		segs = grown
	}
	return append(segs, seg)
}

// compPoints is the raw store: a FIFO of sealed blocks plus the open
// run of at most blockLen points.
type compPoints struct {
	blockLen int
	capacity int // max total points; 0 = unbounded (never evicts)
	segs     []Block
	run      rawRun
	n        int
	// sealed queues blocks sealed since the last takeSealed — the DB's
	// seal-hook feed.
	sealed []Block
}

func (c *compPoints) size() int { return c.n }

// push appends one point. When the store exceeds its capacity the oldest
// sealed segment leaves retention and is handed back for the caller to
// cascade into the tiers.
func (c *compPoints) push(p rawPoint) (evicted Block, ok bool) {
	c.run.push(p.nano, p.value)
	c.n++
	if c.run.n >= c.blockLen {
		//nyquist:allow-alloc seal fires once per blockLen points; its cost amortizes to ~0 per append
		c.seal()
	}
	if c.capacity > 0 && c.n > c.capacity && len(c.segs) > 0 {
		return c.evictOldest(), true
	}
	return Block{}, false
}

// seal turns the open run into a segment. memSeries.append admits only
// time-ordered points, so the run is what EncodeBlock would accept.
func (c *compPoints) seal() {
	if c.run.n == 0 {
		return
	}
	blk := c.run.seal()
	c.addSeg(blk)
	c.sealed = append(c.sealed, blk)
}

// addSeg lands a sealed block at the young end of the FIFO. Its points
// are already counted in n (seal) or are counted by the caller (restore).
func (c *compPoints) addSeg(blk Block) {
	c.segs = appendSeg(c.segs, blk, c.capacity, c.blockLen)
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

// evictOldest removes and returns the oldest sealed block.
func (c *compPoints) evictOldest() Block {
	seg := c.segs[0]
	copy(c.segs, c.segs[1:])
	c.segs[len(c.segs)-1] = Block{}
	c.segs = c.segs[:len(c.segs)-1]
	c.n -= seg.Len()
	return seg
}

// bounds returns the oldest and newest retained instants. Storage is in
// append order, which the strict-append contract makes time order.
func (c *compPoints) bounds() (oldest, newest int64, ok bool) {
	switch {
	case len(c.segs) > 0:
		oldest = c.segs[0].firstNano
	case c.run.n > 0:
		oldest = c.run.firstNano
	default:
		return 0, 0, false
	}
	if c.run.n > 0 {
		return oldest, c.run.lastNano, true
	}
	return oldest, c.segs[len(c.segs)-1].lastNano, true
}

// each emits every retained point whose block can overlap [lo, hi).
// Sealed blocks fully outside the window are skipped without decoding;
// the caller filters what the others emit.
func (c *compPoints) each(lo, hi int64, emit func(rawPoint)) {
	for i := range c.segs {
		if s := &c.segs[i]; s.firstNano < hi && s.lastNano >= lo {
			s.Iter().each(emit)
		}
	}
	c.run.iter().each(emit)
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
// bucket blocks plus the open block, which stays compressed too — its
// whole miniblocks already encoded in stream, only the newest few buckets
// (fewer than a miniblock) staged as plain values.
type compBuckets struct {
	blockLen int
	capacity int // max finalized buckets; 0 = unbounded
	segs     []bucketBlock
	stream   bucketStream
	staged   []bucket
	n        int
}

func newCompBuckets(blockLen, capacity int) compBuckets {
	return compBuckets{blockLen: blockLen, capacity: capacity, staged: make([]bucket, 0, min(miniLen, blockLen))}
}

func (c *compBuckets) size() int { return c.n }

// push appends one finalized bucket, handing back the oldest sealed
// block once capacity is exceeded.
func (c *compBuckets) push(b bucket) (evicted bucketBlock, ok bool) {
	c.staged = append(c.staged, b)
	c.n++
	if len(c.staged) == miniLen || c.stream.blk.n+len(c.staged) >= c.blockLen {
		//nyquist:allow-alloc a miniblock is encoded once per miniLen buckets and a block sealed once per blockLen; the cost amortizes to ~0 per append
		c.flush()
	}
	if c.capacity > 0 && c.n > c.capacity && len(c.segs) > 0 {
		return c.evictOldest(), true
	}
	return bucketBlock{}, false
}

// flush encodes the staged buckets as the open block's next miniblock and,
// once the block holds blockLen buckets, seals it: the bytes already
// written, copied to size. Nothing is decoded or encoded a second time.
func (c *compBuckets) flush() {
	c.stream.add(c.staged)
	c.staged = c.staged[:0]
	if c.stream.blk.n < c.blockLen {
		return
	}
	blk := c.stream.blk
	blk.data = exactCopy(blk.data)
	c.segs = appendSeg(c.segs, blk, c.capacity, c.blockLen)
	c.stream.reset()
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
func (c *compBuckets) bounds() (oldest, newestEnd int64, ok bool) {
	oldest, newestEnd = math.MaxInt64, math.MinInt64
	for i := range c.segs {
		oldest = min(oldest, c.segs[i].firstNano)
		newestEnd = max(newestEnd, c.segs[i].lastEnd)
	}
	if c.stream.blk.n > 0 {
		oldest = min(oldest, c.stream.blk.firstNano)
		newestEnd = max(newestEnd, c.stream.blk.lastEnd)
	}
	for _, b := range c.staged {
		oldest = min(oldest, b.start)
		newestEnd = max(newestEnd, b.end)
	}
	return oldest, newestEnd, c.n > 0
}

// each emits finalized buckets in order, skipping blocks — the open one
// is decoded in place like a sealed one — whose coverage cannot intersect
// [lo, hi).
func (c *compBuckets) each(lo, hi int64, emit func(bucket)) {
	for i := range c.segs {
		c.segs[i].eachIn(lo, hi, emit)
	}
	c.stream.blk.eachIn(lo, hi, emit)
	for _, b := range c.staged {
		emit(b)
	}
}

// eachIn decodes the block if its coverage can intersect [lo, hi). Decode
// errors are impossible for self-encoded blocks.
func (bb *bucketBlock) eachIn(lo, hi int64, emit func(bucket)) {
	if bb.n > 0 && bb.firstNano < hi && bb.lastEnd > lo {
		_ = bb.each(emit)
	}
}

// sampleTotal sums every finalized bucket's count without decoding any
// block — the stats path runs under the shard lock.
func (c *compBuckets) sampleTotal() int64 {
	n := c.stream.blk.samples
	for i := range c.segs {
		n += c.segs[i].samples
	}
	for _, b := range c.staged {
		n += b.count
	}
	return n
}

// compressedFootprint reports the sealed payload only: the open block's
// bytes are open-tail state (openTailBytes), as the raw store's open run
// is.
func (c *compBuckets) compressedFootprint() (bytes, buckets int64) {
	for i := range c.segs {
		bytes += int64(c.segs[i].size())
		buckets += int64(c.segs[i].n)
	}
	return bytes, buckets
}
