// Export/restore of per-series state: the iteration hooks the durability
// layer (internal/wal) uses to write block snapshots and to rebuild a
// store on boot. A SeriesSnapshot is a faithful copy of one memSeries —
// sealed raw blocks verbatim (they are already the byte-exact,
// self-delimiting persistence unit), the unsealed open run decoded to
// plain points, and every retention tier's finalized buckets plus its open
// bucket — so restore followed by the same appends is indistinguishable
// from never having restarted.

package tsdb

import (
	"math"
	"time"

	"repro/internal/series"
)

// SeriesSnapshot is one series' complete retention state, as exported by
// ExportSeries and accepted by RestoreSeries.
type SeriesSnapshot struct {
	// ID is the series id.
	ID string
	// NyquistRate is the recorded estimate in hertz (0 = none).
	NyquistRate float64
	// Gap is the inter-sample EWMA that seeds tier widths while no
	// Nyquist estimate exists.
	Gap time.Duration
	// LastTime/HaveLast reproduce the strict-append ordering watermark.
	LastTime time.Time
	HaveLast bool
	// Appends, Compacted and Dropped mirror the per-series counters.
	Appends, Compacted, Dropped int64
	// Raw holds the sealed raw blocks, oldest first.
	Raw []Block
	// Active is the unsealed raw tail, oldest first.
	Active []series.Point
	// Tiers describes each downsampled tier, finest first.
	Tiers []TierSnapshot
}

// TierSnapshot is one retention tier's state.
type TierSnapshot struct {
	// Width is the tier's current bucket width.
	Width time.Duration
	// Buckets holds the finalized buckets, oldest first.
	Buckets []BucketSnapshot
	// Cur is the in-progress bucket, nil when none is open.
	Cur *BucketSnapshot
}

// BucketSnapshot is one aggregated bucket.
type BucketSnapshot struct {
	Start, End time.Time
	Min, Max   float64
	Sum        float64
	Count      int64
}

func bucketSnapOf(b bucket) BucketSnapshot {
	return BucketSnapshot{Start: time.Unix(0, b.start), End: time.Unix(0, b.end), Min: b.min, Max: b.max, Sum: b.sum, Count: b.count}
}

func (bs BucketSnapshot) bucket() bucket {
	return bucket{start: bs.Start.UnixNano(), end: bs.End.UnixNano(), min: bs.Min, max: bs.Max, sum: bs.Sum, count: bs.Count}
}

// ExportSeries calls fn once per stored series with its full retention
// state. Each shard is read-locked for the duration of its series'
// exports, so fn should only encode and hand off (writers to that shard
// stall while it runs); a non-nil error from fn aborts the export.
// Sealed blocks are exported by reference — Block data is immutable — so
// exporting does not copy compressed history.
func (db *DB) ExportSeries(fn func(SeriesSnapshot) error) error {
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for id, m := range sh.series {
			if err := fn(m.export(id)); err != nil {
				sh.mu.RUnlock()
				return err
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}

// export builds the snapshot of one series. Caller holds the shard lock.
func (m *memSeries) export(id string) SeriesSnapshot {
	s := SeriesSnapshot{
		ID:          id,
		NyquistRate: m.nyquist,
		Gap:         m.gap,
		HaveLast:    m.haveLast,
		Appends:     m.appends,
		Compacted:   m.compacted,
		Dropped:     m.dropped,
	}
	if m.haveLast {
		s.LastTime = time.Unix(0, m.lastNano)
	}
	for i := range m.raw.segs {
		s.Raw = append(s.Raw, m.raw.segs[i])
	}
	if n := m.raw.run.n; n > 0 {
		s.Active = make([]series.Point, 0, n)
		it := m.raw.run.iter()
		for it.Next() {
			s.Active = append(s.Active, it.Point())
		}
	}
	for _, t := range m.tiers {
		ts := TierSnapshot{Width: t.width}
		t.each(math.MinInt64, math.MaxInt64, func(b bucket) {
			ts.Buckets = append(ts.Buckets, bucketSnapOf(b))
		})
		if t.curSet {
			c := bucketSnapOf(t.cur)
			ts.Cur = &c
		}
		s.Tiers = append(s.Tiers, ts)
	}
	return s
}

// RestoreSeries installs an exported series state, replacing any series
// with the same id. Restore is a boot-time operation: it is safe against
// concurrent access to other series, but racing appends to the id being
// restored lose. When the DB's retention config matches the exporting
// one (the normal restart), the structure is rebuilt verbatim; when
// capacities or the block length shrank, the overflow cascades into the
// (already restored) tiers through the regular append path. Every instant
// in s must be representable as int64 nanoseconds — anything ExportSeries
// or the WAL decoder produced is.
func (db *DB) RestoreSeries(s SeriesSnapshot) {
	rc := &db.cfg.Retention
	m := newMemSeries(rc)
	m.nyquist = s.NyquistRate
	m.gap = s.Gap
	if s.HaveLast {
		m.lastNano, m.haveLast = s.LastTime.UnixNano(), true
	}
	m.appends, m.compacted, m.dropped = s.Appends, s.Compacted, s.Dropped

	// Tiers first — deepest first, so any evictions a shallower tier's
	// restore causes cascade onto already-restored deeper buckets in
	// time order.
	if len(s.Tiers) > 0 && rc.Tiers > 0 {
		m.tiers = make([]*tier, len(s.Tiers))
		for k := range s.Tiers {
			m.tiers[k] = newTier(s.Tiers[k].Width, rc)
		}
		for k := len(s.Tiers) - 1; k >= 0; k-- {
			for _, bs := range s.Tiers[k].Buckets {
				m.pushBucket(k, bs.bucket())
			}
			if s.Tiers[k].Cur != nil {
				m.tiers[k].cur = s.Tiers[k].Cur.bucket()
				m.tiers[k].curSet = true
			}
		}
	}

	for _, blk := range s.Raw {
		if blk.Len() == 0 {
			continue
		}
		m.raw.addSeg(blk)
		m.raw.n += blk.Len()
	}
	// The active tail re-enters through push so an oversized tail
	// (smaller block length after a config change) re-seals; blocks
	// sealed during restore are already covered by the snapshot, so
	// their hook queue is discarded, not replayed into the WAL.
	for _, p := range s.Active {
		m.pushRaw(rawPoint{nano: p.Time.UnixNano(), value: p.Value}, rc)
	}
	m.raw.takeSealed()

	sh := db.shardFor(s.ID)
	sh.mu.Lock()
	sh.series[s.ID] = m
	sh.mu.Unlock()
}
