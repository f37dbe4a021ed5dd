package tsdb

import (
	"errors"
	"math"
	"time"

	"repro/internal/series"
)

var errNoSeries = errors.New("tsdb: no such series")

// maxTierWidth caps bucket widths so absurdly low Nyquist estimates
// cannot overflow duration arithmetic.
const maxTierWidth = 365 * 24 * time.Hour

// minAppendTime and maxAppendTime bound the timestamps a store accepts:
// the int64-nanosecond range less one maxTierWidth at either end.
var (
	minAppendTime = minUnixNano.Add(maxTierWidth)
	maxAppendTime = maxUnixNano.Add(-maxTierWidth)
)

// Inside the store every instant is int64 nanoseconds since the Unix
// epoch — what sealed blocks have always held — so the open blocks carry
// no pointers and the garbage collector never scans them. series.Point
// becomes a rawPoint once, in memSeries.append after the range check;
// instants become time.Time again only where a result leaves the package
// (time.Unix(0, n), as block decoding always returned them).

// rawPoint is one raw sample on its way into or out of the raw store.
type rawPoint struct {
	nano  int64
	value float64
}

func (p rawPoint) point() series.Point {
	return series.Point{Time: time.Unix(0, p.nano), Value: p.value}
}

// gridFloor rounds nano down to the width grid, but never below the
// encodable range: each cascade level truncates again, and across
// non-nested grids (capped or retuned widths) a deep tier's start could
// otherwise walk more than the append margin below the oldest point.
// The grid is time.Time.Truncate's, which counts from year 1, not from
// the Unix epoch; that offset does not fit int64 nanoseconds, so the
// rounding itself stays in time.Time. Only bucket-opening slow paths
// come here.
func gridFloor(nano int64, width time.Duration) int64 {
	if g := time.Unix(0, nano).Truncate(width); !g.Before(minUnixNano) {
		return g.UnixNano()
	}
	return math.MinInt64
}

// bucket is one aggregated interval of a downsampled tier. Each bucket
// carries its own [start, end) coverage: tiers are retuned while buckets
// written under older widths are still retained, so coverage must not be
// derived from the tier's live width.
type bucket struct {
	start, end int64
	min, max   float64
	sum        float64
	count      int64
}

// bucketBytes is the element size of the tiers' staged buckets, as
// openTailBytes accounts them (TestSeriesStateBytes holds it to
// unsafe.Sizeof).
const bucketBytes = 48

func bucketOf(p rawPoint) bucket {
	return bucket{start: p.nano, end: p.nano, min: p.value, max: p.value, sum: p.value, count: 1}
}

func (b bucket) mean() float64 { return b.sum / float64(b.count) }

// merge folds o into b (b.start is kept; coverage extends to o's end
// when a cascaded bucket straddles it).
func (b *bucket) merge(o bucket) {
	if o.min < b.min {
		b.min = o.min
	}
	if o.max > b.max {
		b.max = o.max
	}
	b.end = max(b.end, o.end)
	b.sum += o.sum
	b.count += o.count
}

// tier is one downsampled retention level: its finalized buckets (the
// embedded compBuckets: sealed bucket blocks plus the open one) and the
// in-progress bucket accumulating the newest interval.
type tier struct {
	compBuckets
	width  time.Duration
	cur    bucket
	curSet bool
	// next caches the grid start adjacent to cur under the CURRENT
	// width — the fast path for the dense in-order cadence, letting
	// ingest skip Truncate's 128-bit division per point. It is unknown
	// (nextSet false: fresh tier, restored tier, or width retuned while
	// cur was open on the old grid) until a bucket opens on the current
	// grid, which forces the exact slow path.
	next    int64
	nextSet bool
}

func newTier(width time.Duration, rc *RetentionConfig) *tier {
	return &tier{
		compBuckets: newCompBuckets(blockLen(rc.CompressBlock, rc.TierCapacity), rc.TierCapacity),
		width:       width,
	}
}

// blockLen sizes a store's sealed blocks: the configured length, but at
// most a quarter of a bounded capacity (floor 1). Eviction sheds one
// sealed block at a time, so this keeps a full store's size within
// (capacity − capacity/4, capacity] however small the capacity is.
func blockLen(block, capacity int) int {
	if capacity > 0 && block > capacity/4 {
		block = max(1, capacity/4)
	}
	return block
}

// band returns the tier's retained band: the oldest bucket start and the
// newest coverage end, the open bucket included.
func (t *tier) band() (oldest, newestEnd int64, ok bool) {
	oldest, newestEnd, ok = t.bounds()
	if !t.curSet {
		return oldest, newestEnd, ok
	}
	if !ok {
		return t.cur.start, t.cur.end, true
	}
	return min(oldest, t.cur.start), max(newestEnd, t.cur.end), true
}

// overlaps reports whether the tier's retained band intersects [lo, hi)
// — the pruning check that keeps recent-window queries from walking cold
// tiers.
func (t *tier) overlaps(lo, hi int64) bool {
	oldest, newestEnd, ok := t.band()
	return ok && oldest < hi && newestEnd > lo
}

// memSeries is one series' in-memory state. It carries no lock of its
// own: the owning shard's mutex guards all access (query-time block
// decoding touches no shared state, so readers share the RLock).
type memSeries struct {
	raw   compPoints
	tiers []*tier

	// nyquist is the recorded Nyquist-rate estimate in hertz (0 =
	// unknown); it drives the tier bucket widths.
	nyquist float64
	// gap is an EWMA of positive inter-sample gaps — the fallback basis
	// for tier widths while no Nyquist estimate exists.
	gap      time.Duration
	lastNano int64
	haveLast bool

	appends   int64
	compacted int64
	dropped   int64
}

func newMemSeries(rc *RetentionConfig) *memSeries {
	return &memSeries{raw: compPoints{blockLen: blockLen(rc.CompressBlock, rc.RawCapacity), capacity: rc.RawCapacity}}
}

// append is the store's one write contract: strict-append. A point older
// than the series' newest accepted sample is rejected with ErrOutOfOrder
// (equal timestamps are fine — production pollers emit duplicates), a
// timestamp within maxTierWidth of either end of the int64-nanosecond
// range with ErrTimeRange, and a rejected point changes nothing. An
// accepted point lands, cascading the evicted oldest sealed block into
// the tiers when the raw store is full. The two checks are what make
// every seal encodable: runs are time-ordered, and a bucket spans at most
// maxTierWidth past a point that opened or joined it, from a start
// gridFloor keeps in range.
func (m *memSeries) append(p series.Point, rc *RetentionConfig) error {
	if m.haveLast && p.Time.Before(time.Unix(0, m.lastNano)) {
		return ErrOutOfOrder
	}
	if p.Time.Before(minAppendTime) || p.Time.After(maxAppendTime) {
		return ErrTimeRange
	}
	nano := p.Time.UnixNano()
	// The gap EWMA only seeds the initial tier grid; once the tiers
	// exist, retention follows the Nyquist estimates.
	if m.tiers == nil && m.haveLast {
		gap := time.Duration(nano - m.lastNano)
		if gap < 0 { // nano ≥ lastNano: only overflow gets here; saturate as Time.Sub does
			gap = math.MaxInt64
		}
		if gap > 0 {
			if m.gap == 0 {
				m.gap = gap
			} else {
				m.gap += (gap - m.gap) / 8
			}
		}
	}
	m.lastNano = nano
	m.haveLast = true
	m.appends++
	m.pushRaw(rawPoint{nano: nano, value: p.Value}, rc)
	return nil
}

// pushRaw lands p in the raw store, cascading the block it evicts (if
// any) point by point into the first tier.
func (m *memSeries) pushRaw(p rawPoint, rc *RetentionConfig) {
	if seg, ok := m.raw.push(p); ok {
		it := seg.Iter()
		for it.Next() {
			m.compact(rawPoint{nano: it.nano, value: it.val}, rc)
		}
	}
}

// compact cascades one evicted raw point into the first tier (or counts
// it dropped when tiers are disabled).
func (m *memSeries) compact(p rawPoint, rc *RetentionConfig) {
	//nyquist:allow-alloc tier arrays are built on a series' first compaction, then reused for its lifetime
	m.ensureTiers(rc)
	if len(m.tiers) == 0 {
		m.dropped++
		return
	}
	m.compacted++
	m.ingest(0, bucketOf(p))
}

// ingest folds b into tier k's current bucket, finalizing (and possibly
// cascading to tier k+1) when b opens a later interval on the tier grid.
//
//nyquist:hotpath
func (m *memSeries) ingest(k int, b bucket) {
	t := m.tiers[k]
	if !t.curSet {
		t.curSet = true
		t.open(b, gridFloor(b.start, t.width))
		return
	}
	// Common case: the point lands in the open bucket — one comparison,
	// no grid division.
	if b.start < t.cur.end {
		t.cur.merge(b)
		return
	}
	// Next-bucket fast path: when t.next is known, cur.start sits on
	// the current width's grid and t.next is the adjacent grid start,
	// so a point landing inside [next, next+width) opens exactly the
	// adjacent bucket. That is the dense in-order cadence, and
	// answering it with two comparisons skips Truncate's 128-bit
	// division — measurably hot when every append cascades a raw point
	// through here. A retune forgets t.next (cur then straddles the old
	// grid), falling back to the exact slow path until the next bucket
	// opens on the new grid. (The unsigned difference cannot overflow the
	// way next+width could at the top of the range.)
	var gridStart int64
	if t.nextSet && b.start >= t.next && uint64(b.start-t.next) < uint64(t.width) {
		gridStart = t.next
	} else {
		gridStart = gridFloor(b.start, t.width)
		if gridStart <= t.cur.start {
			t.cur.merge(b)
			return
		}
	}
	m.pushBucket(k, t.cur)
	t.open(b, gridStart)
}

// open makes b the tier's in-progress bucket, covering the current grid's
// cell at gridStart. The append door keeps every point a maxTierWidth
// inside the int64 range, so the cell's end cannot overflow.
func (t *tier) open(b bucket, gridStart int64) {
	b.start = gridStart
	b.end = gridStart + int64(t.width)
	t.cur = b
	t.next, t.nextSet = b.end, true
}

// pushBucket finalizes b into tier k, cascading the block it evicts (if
// any) into tier k+1; past the last tier the block's samples are counted
// dropped from its metadata, without a decode. Self-encoded blocks cannot
// fail to decode, so the iterators' errors are not consulted.
func (m *memSeries) pushBucket(k int, b bucket) {
	seg, ok := m.tiers[k].push(b)
	if !ok {
		return
	}
	if k+1 >= len(m.tiers) {
		m.dropped += seg.samples
		return
	}
	it := seg.iter()
	for it.next() {
		m.ingest(k+1, it.bucket())
	}
}

// ensureTiers lazily creates the downsampled tiers on first compaction,
// with widths derived from the current Nyquist estimate (or the observed
// native interval while none exists).
func (m *memSeries) ensureTiers(rc *RetentionConfig) {
	if m.tiers != nil || rc.Tiers <= 0 {
		return
	}
	m.tiers = make([]*tier, rc.Tiers)
	w := m.baseWidth()
	for i := range m.tiers {
		m.tiers[i] = newTier(w, rc)
		w = widen(w)
	}
}

// retune updates existing tier widths after a Nyquist estimate change;
// future buckets use the new grid, retained and open buckets keep the
// coverage they were written with.
func (m *memSeries) retune() {
	w := m.baseWidth()
	for _, t := range m.tiers {
		if t.width != w {
			t.width = w
			// The open bucket still sits on the old grid; drop the cached
			// adjacent grid start so ingest recomputes via Truncate until a
			// bucket opens on the new grid.
			t.nextSet = false
		}
		w = widen(w)
	}
}

// baseWidth derives the first tier's bucket width. The first tier is
// lossless with respect to the estimated Nyquist rate: its bucket rate is
// at least series.Headroom × rate, i.e. at least 2·f_max. While no estimate
// exists the native inter-sample interval stands in, making the first
// tier lossless with respect to whatever is actually being polled.
//
// A width wider than one native interval is floored to a whole number of
// them (m.gap, frozen once the tiers exist). Rounding down only raises
// the bucket rate, so the tier stays lossless; widen's integer fan-out
// keeps deeper tiers on the same lattice; a bucket of a steadily polled
// series then holds exactly k samples — a decimate-by-k boxcar the bucket
// codec's regular miniblocks and count field store for nothing — and most
// changes of the estimate map to the same k and move no grid at all.
func (m *memSeries) baseWidth() time.Duration {
	var base time.Duration
	if m.nyquist > 0 {
		base = time.Duration(float64(time.Second) / (series.Headroom * m.nyquist))
	}
	if base <= 0 {
		base = m.gap
	}
	if base <= 0 {
		base = time.Second
	}
	base = min(base, maxTierWidth)
	if m.gap > 0 && base > m.gap {
		base -= base % m.gap
	}
	return base
}

// widen is the next deeper tier's width: the integer fan-out keeps the
// grids nested, up to the maxTierWidth cap.
func widen(w time.Duration) time.Duration {
	if w < maxTierWidth/fanout {
		return w * fanout
	}
	return maxTierWidth
}

// retained counts currently held points: raw samples plus finalized and
// in-progress buckets.
func (m *memSeries) retained() int { return m.raw.size() + m.buckets() }

func (m *memSeries) buckets() int {
	n := 0
	for _, t := range m.tiers {
		n += t.size()
		if t.curSet {
			n++
		}
	}
	return n
}

// openTailBytes is what the open blocks hold allocated, no decode: the
// capacity of the raw run's buffer, plus every tier's staged buckets
// (capacity × element size) and the capacity of its open block's
// compressed payload.
func (m *memSeries) openTailBytes() int64 {
	n := int64(cap(m.raw.run.w.buf))
	for _, t := range m.tiers {
		n += int64(cap(t.staged))*bucketBytes + int64(cap(t.stream.blk.data))
	}
	return n
}

// tierFootprint sums the sealed compressed payload across all tiers:
// bytes and the buckets they hold (the raw store's own is
// m.raw.compressedFootprint).
func (m *memSeries) tierFootprint() (bytes, buckets int64) {
	for _, t := range m.tiers {
		b, n := t.compressedFootprint()
		bytes += b
		buckets += n
	}
	return bytes, buckets
}

// stats builds the operator view of this series.
func (m *memSeries) stats(id string) SeriesStats {
	st := SeriesStats{
		ID:          id,
		NyquistRate: m.nyquist,
		Appends:     m.appends,
		Compacted:   m.compacted,
		Dropped:     m.dropped,
		RawPoints:   m.raw.size(),
	}
	rawBytes, _ := m.raw.compressedFootprint()
	tierBytes, _ := m.tierFootprint()
	st.CompressedBytes = rawBytes + tierBytes
	if oldest, newest, ok := m.raw.bounds(); ok {
		st.RawOldest = time.Unix(0, oldest)
		st.RawNewest = time.Unix(0, newest)
	}
	for _, t := range m.tiers {
		// Sealed blocks carry their bounds and sample totals as metadata;
		// the stats path (which runs under the shard lock) must never pay
		// a decode for them.
		ts := TierStats{Width: t.width, Buckets: t.size(), Samples: t.sampleTotal()}
		if oldest, newestEnd, ok := t.band(); ok {
			ts.Oldest, ts.Newest = time.Unix(0, oldest), time.Unix(0, newestEnd)
		}
		if t.curSet {
			ts.Buckets++
			ts.Samples += t.cur.count
		}
		st.Tiers = append(st.Tiers, ts)
	}
	return st
}
