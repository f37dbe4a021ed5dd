// Shard-affinity batched appends: the write-path counterpart of
// AppendUniform for mixed-series batches. The serving layer parses a
// whole ingest batch before touching the store; AppendBatch then groups
// the batch's points by their FNV target shard and flushes each group
// under a single shard-lock acquisition — one lock round-trip per shard
// per batch instead of one per point. Per-series arrival order is
// preserved: a series maps to exactly one shard, the grouping scatter is
// stable, and each shard's group is applied in arrival order, so the
// strict-append verdict for every point is identical to what a per-point
// Append loop would have produced.

package tsdb

import (
	"slices"
	"sync"

	"repro/internal/cores"
	"repro/internal/series"
)

// BatchPoint is one point of an AppendBatch call. Err is an output: nil
// after the call means the point landed; a refused point carries
// ErrOutOfOrder/ErrTimeRange exactly as Append would have returned it. Writing verdicts in place keeps the batch path free of
// per-call result allocations.
type BatchPoint struct {
	ID  string
	P   series.Point
	Err error
}

// batchScratch is the pooled state of one AppendBatch call: a
// counting-sort of point indexes by target shard, and the batch its shares
// apply. Pooled so steady-state batches allocate nothing for grouping.
type batchScratch struct {
	shardOf []uint32 // target shard per point
	counts  []int32  // points per shard
	offs    []int32  // scatter offsets per shard: each group's end once scattered
	order   []int32  // point indexes grouped by shard, arrival order within
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
	clear(sc.counts)
}

// AppendBatch appends every point of the batch, grouping points by
// target shard so each touched shard's lock is taken once for the whole
// batch. Each point's verdict is written to its Err field (nil, or
// ErrOutOfOrder/ErrTimeRange as Append would have returned), and the
// number of accepted points is returned. Points of the same series are
// applied in slice order, so per-series verdicts — and the per-series
// seal order the WAL hook observes — match a sequential Append loop
// exactly. Points of distinct series interleave differently than a
// sequential loop would (shard by shard, on every core for a large batch),
// which no contract observes: series are independent everywhere downstream.
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
	for i := range pts {
		s := fnv32a(pts[i].ID) % shards
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

// Share applies the groups of shards s ≡ w (mod n): disjoint series.
func (sc *batchScratch) Share(w, n int) {
	db, pts := sc.db, sc.pts
	for s := w; s < len(sc.offs); s += n {
		end := sc.offs[s]
		start := end - sc.counts[s]
		if start == end {
			continue
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
					db.drainSealed(sh, lastID, m)
				}
				m = sh.getOrCreate(bp.ID, &db.cfg.Retention)
				lastID = bp.ID
			}
			bp.Err = m.append(bp.P, &db.cfg.Retention)
		}
		if m != nil {
			db.drainSealed(sh, lastID, m)
		}
		sh.mu.Unlock()
	}
}
