package monitor

import (
	"time"

	"repro/internal/series"
	"repro/internal/tsdb"
)

// Store is the monitoring pipeline's storage leg: a thin adapter over the
// sharded multi-resolution time-series engine (internal/tsdb). Writers
// spread across the engine's shards instead of serializing on one global
// mutex, and a bounded store degrades resolution under pressure —
// compacting old samples into Nyquist-derived min/max/mean tiers —
// instead of failing the write (see TestBoundedStoreNoLongerFails).
type Store struct {
	db *tsdb.DB
}

// ErrNoSeries is returned when querying an id that was never written.
var ErrNoSeries = tsdb.ErrNoSeries

// NewStore returns an empty store. capacity bounds each series' raw
// (full-resolution) store in points (0 = unbounded); when it fills, the
// oldest samples cascade into downsampled retention tiers rather than
// failing the write — the retention budget operators face, without the
// seed store's hard stop.
func NewStore(capacity int) *Store {
	return &Store{db: tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: capacity}})}
}

// NewTieredStore returns a store with full control over sharding and the
// multi-resolution retention policy.
func NewTieredStore(cfg tsdb.Config) *Store {
	return &Store{db: tsdb.New(cfg)}
}

// DB exposes the underlying engine for query/retention reporting.
func (s *Store) DB() *tsdb.DB { return s.db }

// Append adds one point to the series with the given id. The store is
// strict-append: it returns tsdb.ErrOutOfOrder for a point older than
// the series' newest sample and tsdb.ErrTimeRange for a timestamp
// outside the accepted range (see tsdb.DB.Append), and a rejected point
// does not land.
func (s *Store) Append(id string, p series.Point) error {
	return s.db.Append(id, p)
}

// AppendUniform stores every sample of a uniform trace under id, locking
// the series' shard once for the whole block. The first rejected sample
// stops the append and is returned.
func (s *Store) AppendUniform(id string, u *series.Uniform) error {
	return s.db.AppendUniform(id, u)
}

// AppendBatch appends a mixed-series batch with one shard-lock
// acquisition per touched shard, writing each point's verdict into its
// Err field (see tsdb.DB.AppendBatch). Returns the number of accepted
// points.
func (s *Store) AppendBatch(pts []tsdb.BatchPoint) int {
	return s.db.AppendBatch(pts)
}

// SealActive force-seals every series' active run (see
// tsdb.DB.SealAll) so a write-ahead log sees the unsealed tails before
// shutdown. Returns the number of blocks sealed.
func (s *Store) SealActive() int { return s.db.SealAll() }

// SetNyquist records the series' estimated Nyquist rate (2·f_max, hertz)
// and retunes its retention tiers — the estimate→retain loop the
// archiver and pollers close.
func (s *Store) SetNyquist(id string, rate float64) {
	s.db.SetNyquistRate(id, rate)
}

// NyquistRate returns the series' recorded Nyquist estimate (0 = none).
func (s *Store) NyquistRate(id string) float64 {
	return s.db.NyquistRate(id)
}

// Query returns the stored samples for id strictly within [from, to),
// matching the seed store's window contract. Samples that were compacted
// into retention tiers appear as their buckets' mean values at the
// buckets' grid timestamps; a bucket whose grid time falls before `from`
// is excluded even when it summarizes in-window samples — use QueryRange
// for the overlap-inclusive, min/max/mean-detailed view.
func (s *Store) Query(id string, from, to time.Time) (*series.Series, error) {
	res, err := s.db.Query(id, from, to, 0)
	if err != nil {
		return nil, err
	}
	pts := res.Points[:0]
	for _, p := range res.Points {
		if !p.Time.Before(from) && p.Time.Before(to) {
			pts = append(pts, p)
		}
	}
	return series.New(pts), nil
}

// QueryRange is the tier-aware range query: at most maxPoints samples
// (0 = no limit) stitched from the cheapest tiers covering [from, to),
// with per-tier provenance and bucket aggregates.
func (s *Store) QueryRange(id string, from, to time.Time, maxPoints int) (*tsdb.QueryResult, error) {
	return s.db.Query(id, from, to, maxPoints)
}

// QueryMatch answers one range query for every series whose id matches
// pattern (prefix, or glob with '*'/'?'), fanning the per-shard reads
// out in parallel. maxPoints is a shared budget split across the matched
// series; maxSeries caps how many series are answered (smallest ids
// win). Zero matches is an empty result, not an error.
func (s *Store) QueryMatch(pattern string, from, to time.Time, maxPoints, maxSeries int) *tsdb.MatchResult {
	return s.db.QueryMatch(pattern, from, to, maxPoints, maxSeries)
}

// Full returns the complete stored series for id across all tiers.
func (s *Store) Full(id string) (*series.Series, error) {
	res, err := s.db.Full(id)
	if err != nil {
		return nil, err
	}
	return series.New(res.Points), nil
}

// IDs returns the stored series ids, sorted.
func (s *Store) IDs() []string { return s.db.IDs() }

// Points returns the total number of retained points (raw samples plus
// retention-tier buckets).
func (s *Store) Points() int { return s.db.Points() }

// Stats aggregates the engine for operator reporting.
func (s *Store) Stats() tsdb.Stats { return s.db.Stats() }

// Snapshot reports every series' retention state, sorted by id.
func (s *Store) Snapshot() []tsdb.SeriesStats { return s.db.Snapshot() }
