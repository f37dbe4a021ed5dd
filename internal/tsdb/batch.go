package tsdb

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cores"
	"repro/internal/series"
)

// BatchPoint is one point of an AppendBatch call. Err is an output: nil
// after the call means the point landed; a refused point carries
// ErrOutOfOrder/ErrTimeRange exactly as Append would have returned it.
type BatchPoint struct {
	ID  string
	P   series.Point
	Err error
}

// batchScratch is the pooled state of one AppendBatch call: a
// counting-sort of point indexes by target shard, and the batch its shares
// apply. Pooled so steady-state batches allocate nothing for grouping.
type batchScratch struct {
	shardOf []uint32     // target shard per point
	counts  []int32      // points per shard
	offs    []int32      // scatter offsets per shard: each group's end once scattered
	order   []int32      // point indexes grouped by shard, arrival order within
	byLoad  []int32      // shards, most points first: the order shares take them
	next    atomic.Int32 // byLoad's first shard no share has taken
	db      *DB
	pts     []BatchPoint
	wg      sync.WaitGroup
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) size(points, shards int) {
	sc.shardOf = slices.Grow(sc.shardOf[:0], points)[:points]
	sc.order = slices.Grow(sc.order[:0], points)[:points]
	sc.counts = slices.Grow(sc.counts[:0], shards)[:shards]
	sc.offs = slices.Grow(sc.offs[:0], shards)[:shards]
	sc.byLoad = slices.Grow(sc.byLoad[:0], shards)[:shards]
	clear(sc.counts)
}

// deal orders the shards by their groups' points, most first (insertion
// sort, ties by index): shares take the next group as they free up, the
// largest first, so the shares finish about together.
func (sc *batchScratch) deal() {
	for i := range sc.byLoad {
		j := i
		for ; j > 0 && sc.counts[sc.byLoad[j-1]] < sc.counts[i]; j-- {
			sc.byLoad[j] = sc.byLoad[j-1]
		}
		sc.byLoad[j] = int32(i)
	}
	sc.next.Store(0)
}

// AppendBatch appends every point of the batch, writing each verdict to
// its Err (nil, or ErrOutOfOrder/ErrTimeRange as Append would return) and
// returning how many landed. Points are grouped by target shard, so each
// touched shard's lock is taken once, and a large batch's groups are
// applied on every core. A series lives in one shard, so its points are
// applied in slice order and its verdicts and seal order (what the WAL
// hook sees) match a sequential Append loop's; only the interleaving of
// distinct series differs, which no contract observes.
//
//nyquist:hotpath
func (db *DB) AppendBatch(pts []BatchPoint) (accepted int) {
	if len(pts) == 0 {
		return 0
	}
	shards := uint32(len(db.shards))
	sc := batchScratchPool.Get().(*batchScratch)
	//nyquist:allow-alloc pooled scratch grows to the largest batch seen, then is reused
	sc.size(len(pts), int(shards))
	var s uint32
	for i := range pts {
		if i == 0 || pts[i].ID != pts[i-1].ID { // once a run: frames come run-grouped
			s = fnv32a(pts[i].ID) % shards
		}
		sc.shardOf[i] = s
		sc.counts[s]++
	}
	off := int32(0)
	for s := range sc.counts {
		sc.offs[s] = off
		off += sc.counts[s]
	}
	for i := range pts {
		s := sc.shardOf[i]
		sc.order[sc.offs[s]] = int32(i)
		sc.offs[s]++
	}
	sc.deal()
	sc.db, sc.pts = db, pts
	cores.Run(sc, min(cores.Shares(len(pts)), int(shards)), &sc.wg)
	sc.db, sc.pts = nil, nil
	batchScratchPool.Put(sc)
	for i := range pts {
		if pts[i].Err == nil {
			accepted++
		}
	}
	return accepted
}

// Share applies the next untaken shard group, largest first, until none
// is left: shares apply disjoint series.
func (sc *batchScratch) Share(_, _ int) {
	db, pts := sc.db, sc.pts
	for k := int(sc.next.Add(1)) - 1; k < len(sc.byLoad); k = int(sc.next.Add(1)) - 1 {
		s := sc.byLoad[k]
		end := sc.offs[s]
		start := end - sc.counts[s]
		if start == end {
			return // the rest are empty too
		}
		sh := &db.shards[s]
		sh.mu.Lock()
		var m *memSeries
		lastID := ""
		for _, idx := range sc.order[start:end] {
			bp := &pts[idx]
			// Same-series runs reuse the resolved series and defer the
			// seal-hook drain to the run boundary; the hook still sees
			// per-series seal order (everything here is under the lock).
			if m == nil || bp.ID != lastID {
				if m != nil {
					db.drainSealed(lastID, m)
				}
				m = sh.getOrCreate(bp.ID, &db.cfg.Retention)
				lastID = bp.ID
			}
			bp.Err = m.append(bp.P, &db.cfg.Retention)
		}
		if m != nil {
			db.drainSealed(lastID, m)
		}
		sh.mu.Unlock()
	}
}
