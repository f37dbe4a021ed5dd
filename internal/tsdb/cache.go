// The decoded-block LRU: the read-path half of the compression bargain.
// Sealed Gorilla blocks make retention cheap, but every query over
// history pays a full block decode per sealed segment — and dashboards
// ask for the same hot ranges over and over. Each shard owns a small
// bounded-bytes cache of decoded point slices keyed by the segment's
// unique seal sequence number, so a hot range pays the codec once and
// is served from memory after that. Entries are immutable once
// inserted (readers share the slice, never mutate it), invalidated
// when their segment is evicted from retention, and LRU-evicted when
// the byte budget fills. Keys are never reused — a segment that left
// retention can never be confused with a new one.
package tsdb

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/series"
)

// segSeq hands out process-unique cache keys for sealed segments. Seal
// and snapshot-restore both assign from it, so every segment has one.
var segSeq atomic.Uint64

func nextSegSeq() uint64 { return segSeq.Add(1) }

// Per-entry cost accounting: a decoded series.Point is 32 bytes
// (24-byte time.Time + float64), plus a flat allowance for the slice
// header, map slot and list element.
const (
	cachePointBytes    = 32
	cacheEntryOverhead = 96
)

// blockCache is one shard's decoded-block LRU. It is locked
// independently of the shard mutex; the only ordering is shard lock →
// cache lock (query and invalidation paths), never the reverse.
type blockCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[uint64]*list.Element

	hits, misses, evictions, invalidations atomic.Int64
}

type cacheEntry struct {
	seq  uint64
	pts  []series.Point
	cost int64
}

func newBlockCache(maxBytes int64) *blockCache {
	return &blockCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[uint64]*list.Element),
	}
}

// get returns the decoded points for seq, promoting the entry. The
// returned slice is shared and must be treated as immutable.
func (c *blockCache) get(seq uint64) ([]series.Point, bool) {
	c.mu.Lock()
	el, ok := c.entries[seq]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	pts := el.Value.(*cacheEntry).pts
	c.mu.Unlock()
	c.hits.Add(1)
	return pts, true
}

// put inserts the decoded points for seq, LRU-evicting until the byte
// budget holds. A slice costing more than the whole budget is not
// cached at all (it would evict everything and then miss next time
// anyway).
func (c *blockCache) put(seq uint64, pts []series.Point) {
	cost := cacheEntryOverhead + cachePointBytes*int64(len(pts))
	if cost > c.maxBytes {
		return
	}
	c.mu.Lock()
	if _, ok := c.entries[seq]; ok {
		c.mu.Unlock()
		return
	}
	c.entries[seq] = c.ll.PushFront(&cacheEntry{seq: seq, pts: pts, cost: cost})
	c.bytes += cost
	for c.bytes > c.maxBytes {
		el := c.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.entries, e.seq)
		c.bytes -= e.cost
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// invalidate drops seq's entry, if cached — called when the segment is
// evicted from retention, so the cache never outlives the data.
func (c *blockCache) invalidate(seq uint64) {
	c.mu.Lock()
	if el, ok := c.entries[seq]; ok {
		e := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.entries, seq)
		c.bytes -= e.cost
		c.invalidations.Add(1)
	}
	c.mu.Unlock()
}

// snapshot reports the cache's current occupancy.
func (c *blockCache) snapshot() (bytes int64, entries int) {
	c.mu.Lock()
	bytes, entries = c.bytes, c.ll.Len()
	c.mu.Unlock()
	return bytes, entries
}

// CacheStats aggregates the decoded-block caches for operator
// reporting (zero-valued when the cache is disabled).
type CacheStats struct {
	// MaxBytes is the configured budget across all shards (0 = cache
	// disabled).
	MaxBytes int64
	// Bytes and Entries describe current occupancy.
	Bytes   int64
	Entries int
	// Hits and Misses count lookups; Evictions counts LRU evictions at
	// the byte budget and Invalidations counts entries dropped because
	// their segment left retention.
	Hits, Misses, Evictions, Invalidations int64
}

// trimWindow narrows a time-ordered decoded block to [lo, hi) by binary
// search, skipping the search on a side the block does not cross.
func trimWindow(pts []series.Point, lo, hi int64) []series.Point {
	nano := func(i int) int64 { return pts[i].Time.UnixNano() }
	from, to := 0, len(pts)
	if to > 0 && nano(0) < lo {
		from = sort.Search(to, func(i int) bool { return nano(i) >= lo })
	}
	if to > 0 && nano(to-1) >= hi {
		to = sort.Search(to, func(i int) bool { return nano(i) >= hi })
	}
	if from >= to {
		return nil
	}
	return pts[from:to]
}
