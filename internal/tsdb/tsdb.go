// Package tsdb is the storage leg of the monitoring pipeline: a sharded,
// concurrency-safe, in-memory time-series engine with Nyquist-aware
// multi-resolution retention.
//
// The paper's cost/quality sweet spot applies to storage as much as to
// polling: once a metric's Nyquist rate is known, retaining samples above
// it is pure waste, and retaining below it aliases. The engine encodes
// that directly:
//
//   - Series are spread over N independent shards keyed by an FNV-1a hash
//     of the series id, each with its own lock, so writers scale with
//     cores instead of serializing on one global mutex.
//
//   - Each series holds a bounded raw store at the polled rate plus
//     downsampled retention tiers. The first tier's bucket width derives
//     from the series' estimated Nyquist rate (lossless at ≥ 2·f_max with
//     headroom); deeper tiers widen by a fixed fan-out and keep
//     min/max/mean summaries — progressively cheaper, progressively
//     coarser.
//
//   - A full raw store never fails a write. Its oldest sealed block
//     cascades into the first tier's buckets; a full tier cascades its
//     oldest block into the next; only the last tier forgets (and counts
//     what it forgot). Resource pressure degrades resolution, it does not
//     stall the pipeline.
//
// Range queries stitch the tiers intersecting the requested window —
// recent queries touch only the raw store, deep-history queries read
// the coarse tiers — and thin the result to a point budget when asked.
// Snapshot and stats surfaces exist for operator reporting.
//
// Raw samples and finalized tier buckets are stored as sealed compressed
// blocks, round-trip exact for arbitrary float64 values and int64-
// nanosecond instants (block.go documents the codecs). The newest entries
// of each store wait in its open block, compressed as it fills, and
// eviction is block-granular (compress.go); neither holds pointers for the
// collector to walk. BenchmarkBlockEncode and the end-to-end
// stored_bytes_per_point measure the sizes (EXPERIMENTS.md); the cost is
// decode-on-read for cold history. EncodeBlock/Block/RebuildBlock are
// usable on their own for wire transfer or snapshot persistence.
package tsdb

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/series"
)

// ErrNoSeries is returned when querying an id that was never written.
var ErrNoSeries = errNoSeries

// Config parameterizes a DB.
type Config struct {
	// Shards is the number of independently locked shards; zero selects
	// 16. Negative values are treated as zero.
	Shards int
	// Retention is the per-series retention policy.
	Retention RetentionConfig
}

// RetentionConfig is the per-series multi-resolution retention policy.
type RetentionConfig struct {
	// RawCapacity bounds the raw (full-resolution) store of each series
	// in points; zero means unbounded, which disables compaction
	// entirely (the regeneration-figures configuration).
	RawCapacity int
	// TierCapacity bounds each downsampled tier in buckets; zero selects
	// RawCapacity.
	TierCapacity int
	// Tiers is the number of downsampled tiers below the raw store; zero
	// selects 2, negative selects none (a plain bounded store that simply
	// forgets evicted points, the seed-style retention). Tiers only
	// matter when RawCapacity bounds the raw store.
	Tiers int
	// CompressBlock is the number of entries per sealed Gorilla block of
	// raw samples or finalized tier buckets; zero or negative selects
	// 128. A bounded store uses at most a quarter of its capacity (floor
	// 1) instead: eviction is block-granular — a full store sheds its
	// oldest sealed block into the next tier — so its retained size
	// breathes within (capacity − capacity/4, capacity].
	CompressBlock int
}

// fanout is the integer bucket-width multiplier between consecutive
// tiers; an integer keeps the tier grids nested.
const fanout = 4

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Retention.RawCapacity < 0 {
		c.Retention.RawCapacity = 0
	}
	if c.Retention.TierCapacity <= 0 {
		c.Retention.TierCapacity = c.Retention.RawCapacity
	}
	if c.Retention.Tiers == 0 {
		c.Retention.Tiers = 2
	}
	if c.Retention.Tiers < 0 {
		c.Retention.Tiers = 0
	}
	if c.Retention.CompressBlock <= 0 {
		c.Retention.CompressBlock = 128
	}
	return c
}

// DB is a sharded in-memory time-series database. All methods are safe
// for concurrent use; writers to different shards proceed in parallel.
type DB struct {
	cfg    Config
	shards []shard
	// sealHook, when set, observes every raw block the moment it is
	// sealed (see OnSeal).
	sealHook atomic.Pointer[SealHook]
	// sealedBlocks counts raw blocks sealed over the DB's lifetime
	// (append-filled and force-sealed alike) — the write-side block
	// cadence the observability layer watches.
	sealedBlocks atomic.Int64
}

// SealHook observes one sealed raw block. Hooks run under the owning
// shard's lock so sealed blocks reach the hook in per-series seal order
// (the property a write-ahead log needs); they must not call back into
// the DB and should only hand the block off (e.g. buffer its bytes).
type SealHook func(id string, blk Block)

// OnSeal installs fn as the seal hook: every raw block sealed from this
// point on — by appends filling a block, or by SealAll — is passed to
// fn. A nil fn removes the hook.
func (db *DB) OnSeal(fn SealHook) {
	if fn == nil {
		db.sealHook.Store(nil)
		return
	}
	db.sealHook.Store(&fn)
}

func (db *DB) hook() SealHook {
	if p := db.sealHook.Load(); p != nil {
		return *p
	}
	return nil
}

type shard struct {
	// mu guards series membership and everything a memSeries holds.
	// It is the ingest hot path's contention point: code holding it
	// must not block, do I/O, or re-enter the DB (lockdiscipline).
	//
	//nyquist:hotlock
	mu     sync.RWMutex
	series map[string]*memSeries
}

// New returns an empty DB. Zero-value config fields select defaults (16
// shards, unbounded raw retention).
func New(cfg Config) *DB {
	c := cfg.withDefaults()
	db := &DB{cfg: c, shards: make([]shard, c.Shards)}
	for i := range db.shards {
		db.shards[i].series = make(map[string]*memSeries)
	}
	return db
}

// DB exists only because bench/trace.go unwraps its store with it; the
// [benchmark] PR that re-points the trace deletes it.
func (db *DB) DB() *DB { return db }

// fnv32a is the FNV-1a hash of s, inlined to keep the append hot path
// allocation-free.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (db *DB) shardFor(id string) *shard {
	return &db.shards[fnv32a(id)%uint32(len(db.shards))]
}

func (sh *shard) getOrCreate(id string, rc *RetentionConfig) *memSeries {
	m := sh.series[id]
	if m == nil {
		//nyquist:allow-alloc first sight of a series: creation is the cold branch, the map hit is the hot one
		m = newMemSeries(rc)
		sh.series[id] = m
	}
	return m
}

// Append adds one point to the series with the given id, creating the
// series on first write. Appends never fail for capacity: a full raw store
// compacts its oldest block into the retention tiers instead. The store
// is strict-append: a point older than the series' newest accepted sample
// returns ErrOutOfOrder, a timestamp outside the accepted range (see
// ErrTimeRange) returns ErrTimeRange, and a rejected point does not land —
// "accepted" means landed, in order, and replayable.
func (db *DB) Append(id string, p series.Point) error {
	sh := db.shardFor(id)
	sh.mu.Lock()
	m := sh.getOrCreate(id, &db.cfg.Retention)
	err := m.append(p, &db.cfg.Retention)
	db.drainSealed(id, m)
	sh.mu.Unlock()
	return err
}

// AppendUniform stores every sample of a uniform trace under id, taking
// the shard lock once for the whole block. The first rejected sample
// stops the append and is returned; earlier samples have already landed.
func (db *DB) AppendUniform(id string, u *series.Uniform) error {
	sh := db.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.getOrCreate(id, &db.cfg.Retention)
	defer db.drainSealed(id, m)
	for i, v := range u.Values {
		if err := m.append(series.Point{Time: u.TimeAt(i), Value: v}, &db.cfg.Retention); err != nil {
			return err
		}
	}
	return nil
}

// drainSealed hands any freshly sealed raw blocks to the seal hook.
// Caller holds the shard lock, which is what serializes hook calls per
// series.
func (db *DB) drainSealed(id string, m *memSeries) {
	sealed := m.raw.takeSealed()
	if len(sealed) == 0 {
		return
	}
	db.sealedBlocks.Add(int64(len(sealed)))
	if h := db.hook(); h != nil {
		for _, blk := range sealed {
			h(id, blk)
		}
	}
}

// SealAll force-seals every series' active run, firing the seal hook for
// each block sealed. This is the graceful-shutdown path: a write-ahead
// log only sees sealed blocks, so sealing the active tails makes them
// durable before exit. Returns the number of blocks sealed while it ran.
func (db *DB) SealAll() int {
	before := db.sealedBlocks.Load()
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for id, m := range sh.series {
			m.raw.seal()
			db.drainSealed(id, m)
		}
		sh.mu.Unlock()
	}
	return int(db.sealedBlocks.Load() - before)
}

// SetNyquistRate records the series' estimated Nyquist rate (2·f_max, in
// hertz) and re-derives its tier bucket widths: the first tier becomes
// lossless at series.Headroom×rate, deeper tiers widen by the fan-out. This is
// the estimate→retain loop: live estimators feed their current estimate
// here and retention follows the signal. Non-positive or non-finite rates
// are ignored. Existing buckets keep their widths; only future buckets
// use the new grid. Re-recording the rate a series already has changes
// nothing — live estimators do that on most clean emissions.
func (db *DB) SetNyquistRate(id string, rate float64) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return
	}
	sh := db.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.getOrCreate(id, &db.cfg.Retention)
	if m.nyquist == rate {
		return
	}
	m.nyquist = rate
	m.retune()
}

// NyquistRate returns the series' recorded Nyquist rate estimate in
// hertz, or 0 when none was set.
func (db *DB) NyquistRate(id string) float64 {
	sh := db.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if m := sh.series[id]; m != nil {
		return m.nyquist
	}
	return 0
}

// Query returns the retained samples for id within [from, to), stitched
// across tiers: coarse (older) tiers first, the raw store last, sorted by
// time. A zero from or to leaves that side unbounded. Compacted buckets
// are returned when their own [start, end) coverage overlaps the window.
// Only tiers (and the raw store) whose retained band intersects the
// window are read, so recent queries touch just the raw store. When
// maxPoints > 0 and the stitched result is larger, it is stride-thinned
// to exactly maxPoints (Result.Thinned reports the degradation).
func (db *DB) Query(id string, from, to time.Time, maxPoints int) (*QueryResult, error) {
	sh := db.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := sh.series[id]
	if m == nil {
		return nil, ErrNoSeries
	}
	return m.query(id, from, to, maxPoints), nil
}

// Full returns everything retained for id across all tiers.
func (db *DB) Full(id string) (*QueryResult, error) {
	return db.Query(id, time.Time{}, time.Time{}, 0)
}

// IDs returns the stored series ids, sorted.
func (db *DB) IDs() []string {
	var out []string
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for id := range sh.series {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Stats aggregates the whole database for operator reporting.
func (db *DB) Stats() Stats {
	st := Stats{Shards: len(db.shards), SeriesPerShard: make([]int, len(db.shards)), SealedBlocks: db.sealedBlocks.Load()}
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		st.SeriesPerShard[i] = len(sh.series)
		st.Series += len(sh.series)
		for _, m := range sh.series {
			st.RawPoints += m.raw.size()
			st.Buckets += m.buckets()
			st.Appends += m.appends
			st.Compacted += m.compacted
			st.Dropped += m.dropped
			b, n := m.raw.compressedFootprint()
			st.RawCompressedBytes += b
			st.RawCompressedEntries += n
			b, n = m.tierFootprint()
			st.TierCompressedBytes += b
			st.TierCompressedEntries += n
			st.OpenTailBytes += m.openTailBytes()
		}
		sh.mu.RUnlock()
	}
	st.CompressedBytes = st.RawCompressedBytes + st.TierCompressedBytes
	st.CompressedEntries = st.RawCompressedEntries + st.TierCompressedEntries
	return st
}

// SeriesStats reports one series' retention state.
func (db *DB) SeriesStats(id string) (*SeriesStats, error) {
	sh := db.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := sh.series[id]
	if m == nil {
		return nil, ErrNoSeries
	}
	st := m.stats(id)
	return &st, nil
}

// Snapshot reports every series' retention state, sorted by id.
func (db *DB) Snapshot() []SeriesStats {
	var out []SeriesStats
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for id, m := range sh.series {
			out = append(out, m.stats(id))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Stats is the database-wide operator report.
type Stats struct {
	// Shards is the shard count.
	Shards int
	// Series is the number of stored series.
	Series int
	// RawPoints is the number of full-resolution samples retained.
	RawPoints int
	// Buckets is the number of retained tier buckets (including the
	// in-progress bucket of each tier).
	Buckets int
	// Appends counts every point ever written.
	Appends int64
	// Compacted counts raw samples that cascaded into the tiers.
	Compacted int64
	// Dropped counts raw samples represented by buckets aged out of the
	// last tier — the only data the engine ever forgets.
	Dropped int64
	// CompressedBytes is the total sealed block payload across raw stores
	// and tiers.
	CompressedBytes int64
	// CompressedEntries is the number of points and buckets those sealed
	// blocks hold; CompressedBytes/CompressedEntries is the achieved
	// bytes-per-entry figure. Both are the sums of the two halves below.
	CompressedEntries int64
	// RawCompressedBytes/RawCompressedEntries are the sealed raw blocks'
	// payload and the points it holds: bytes per stored sample.
	RawCompressedBytes, RawCompressedEntries int64
	// TierCompressedBytes/TierCompressedEntries are the sealed bucket
	// blocks' payload and the buckets it holds: bytes per summary bucket
	// (min, max, sum, count and coverage).
	TierCompressedBytes, TierCompressedEntries int64
	// OpenTailBytes is what the open blocks hold allocated: the capacity
	// of every series' unsealed raw run (compressed as it fills), each
	// tier's staged 48-byte buckets, and the capacity of each tier's open
	// compressed payload. None of it is in the Compressed* figures, which
	// count sealed blocks only.
	OpenTailBytes int64
	// SealedBlocks counts raw blocks sealed over the DB's lifetime
	// (append-filled plus force-sealed).
	SealedBlocks int64
	// SeriesPerShard is the series count per shard (load-balance view).
	SeriesPerShard []int
}

// Retained returns the total points currently held (raw + buckets).
func (s Stats) Retained() int { return s.RawPoints + s.Buckets }

// SeriesStats is one series' retention state.
type SeriesStats struct {
	// ID is the series id.
	ID string
	// NyquistRate is the recorded estimate in hertz (0 = none).
	NyquistRate float64
	// Appends, Compacted and Dropped mirror the Stats counters for this
	// series alone.
	Appends, Compacted, Dropped int64
	// CompressedBytes is this series' sealed compressed payload.
	CompressedBytes int64
	// RawPoints is the raw store's current size.
	RawPoints int
	// RawOldest and RawNewest bound the raw store's retained window (zero
	// when empty).
	RawOldest, RawNewest time.Time
	// Tiers describes each downsampled tier, finest first.
	Tiers []TierStats
}

// TierStats is one downsampled tier's state.
type TierStats struct {
	// Width is the tier's current bucket width.
	Width time.Duration
	// Buckets is the number of retained buckets (including in-progress).
	Buckets int
	// Samples is the number of raw samples those buckets represent.
	Samples int64
	// Oldest and Newest bound the tier's retained window: the oldest
	// bucket's start and the newest bucket's coverage end (zero when
	// empty).
	Oldest, Newest time.Time
}
