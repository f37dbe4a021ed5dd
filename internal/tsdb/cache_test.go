package tsdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/series"
)

// fillSealed appends n one-second-spaced points to id so that most of
// them land in sealed compressed blocks.
func fillSealed(db *DB, id string, n int) {
	for i := 0; i < n; i++ {
		db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i % 251)})
	}
}

// TestCacheServesIdenticalResults pins the cache's core contract: a
// cached store answers every window bit-identically to an uncached one,
// on the first read (miss + populate) and the second (hit).
func TestCacheServesIdenticalResults(t *testing.T) {
	ret := RetentionConfig{RawCapacity: 4096, TierCapacity: 512, Tiers: 2, CompressBlock: 64}
	plain := New(Config{Shards: 4, Retention: ret})
	cached := New(Config{Shards: 4, Retention: ret, CacheBytes: 1 << 20})
	const id = "cache/series"
	const n = 2000
	fillSealed(plain, id, n)
	fillSealed(cached, id, n)

	windows := []struct{ from, to time.Time }{
		{time.Time{}, time.Time{}},
		{start, start.Add(500 * time.Second)},
		{start.Add(300 * time.Second), start.Add(1700 * time.Second)},
		{start.Add((n - 100) * time.Second), start.Add(n * time.Second)},
	}
	for pass := 0; pass < 2; pass++ {
		for wi, w := range windows {
			want, err := plain.Query(id, w.from, w.to, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cached.Query(id, w.from, w.to, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Points) != len(want.Points) {
				t.Fatalf("pass %d window %d: cached %d points, uncached %d", pass, wi, len(got.Points), len(want.Points))
			}
			for i := range want.Points {
				if !got.Points[i].Time.Equal(want.Points[i].Time) || got.Points[i].Value != want.Points[i].Value {
					t.Fatalf("pass %d window %d point %d: cached %v=%v, uncached %v=%v",
						pass, wi, i, got.Points[i].Time, got.Points[i].Value, want.Points[i].Time, want.Points[i].Value)
				}
			}
		}
	}
	cs := cached.Stats().Cache
	if cs.Hits == 0 {
		t.Fatal("second pass over identical windows produced no cache hits")
	}
	if cs.Misses == 0 {
		t.Fatal("first pass produced no cache misses — nothing was actually cached")
	}
	if cs.Bytes <= 0 || cs.Entries <= 0 {
		t.Fatalf("cache occupancy bytes=%d entries=%d after hits", cs.Bytes, cs.Entries)
	}
	if ps := plain.Stats().Cache; ps.MaxBytes != 0 || ps.Hits != 0 || ps.Misses != 0 {
		t.Fatalf("uncached store reports cache activity: %+v", ps)
	}
}

// TestCacheHitMissAccounting pins the counter semantics on a single
// sealed block: first read misses and populates, repeats hit.
func TestCacheHitMissAccounting(t *testing.T) {
	db := New(Config{Shards: 1, CacheBytes: 1 << 20,
		Retention: RetentionConfig{RawCapacity: 4096, CompressBlock: 64}})
	const id = "acct/series"
	fillSealed(db, id, 64) // exactly one sealed block, empty active run
	if got := db.Stats().SealedBlocks; got != 1 {
		t.Fatalf("sealed %d blocks, want 1", got)
	}
	if _, err := db.Query(id, time.Time{}, time.Time{}, 0); err != nil {
		t.Fatal(err)
	}
	cs := db.Stats().Cache
	if cs.Misses != 1 || cs.Hits != 0 || cs.Entries != 1 {
		t.Fatalf("after first read: hits=%d misses=%d entries=%d, want 0/1/1", cs.Hits, cs.Misses, cs.Entries)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Query(id, time.Time{}, time.Time{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	cs = db.Stats().Cache
	if cs.Misses != 1 || cs.Hits != 5 {
		t.Fatalf("after five repeats: hits=%d misses=%d, want 5/1", cs.Hits, cs.Misses)
	}
}

// TestCacheInvalidatedOnRetentionEviction pins the staleness contract:
// when a sealed block ages out of the raw store, its cache entry dies
// with it, and subsequent queries never see evicted data resurrected.
func TestCacheInvalidatedOnRetentionEviction(t *testing.T) {
	// Tiny store: 4-block capacity with 2-point blocks, no tiers, so
	// appends beyond 8 points evict whole sealed blocks.
	db := New(Config{Shards: 1, CacheBytes: 1 << 20,
		Retention: RetentionConfig{RawCapacity: 8, Tiers: -1, CompressBlock: 2}})
	const id = "evict/series"
	fillSealed(db, id, 8)
	if _, err := db.Query(id, time.Time{}, time.Time{}, 0); err != nil {
		t.Fatal(err) // populate the cache with both sealed blocks
	}
	if cs := db.Stats().Cache; cs.Entries == 0 {
		t.Fatal("cache empty after a full-window read over sealed blocks")
	}
	// Push enough to evict the oldest block(s) from retention.
	for i := 8; i < 16; i++ {
		db.Append(id, series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
	}
	cs := db.Stats().Cache
	if cs.Invalidations == 0 {
		t.Fatalf("retention evicted sealed blocks but the cache recorded no invalidations: %+v", cs)
	}
	// The surviving window must reflect current retention, not cached
	// history: nothing older than the store's own oldest bound.
	res, err := db.Query(id, time.Time{}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Time.Before(start.Add(8 * time.Second)) {
			t.Fatalf("query resurrected evicted point at %v", p.Time)
		}
	}
}

// TestCacheRespectsByteBudget pins the bound: a cache sized well below
// the working set holds at most its budget and evicts by LRU.
func TestCacheRespectsByteBudget(t *testing.T) {
	// Each 64-point block costs 96 + 32*64 = 2144 bytes; budget two-ish.
	db := New(Config{Shards: 1, CacheBytes: 5000,
		Retention: RetentionConfig{RawCapacity: 1 << 20, CompressBlock: 64}})
	const id = "budget/series"
	fillSealed(db, id, 64*8)
	if _, err := db.Query(id, time.Time{}, time.Time{}, 0); err != nil {
		t.Fatal(err)
	}
	cs := db.Stats().Cache
	if cs.Bytes > cs.MaxBytes {
		t.Fatalf("cache occupancy %d over the %d budget", cs.Bytes, cs.MaxBytes)
	}
	if cs.Entries > 2 {
		t.Fatalf("cache holds %d entries, budget fits at most 2", cs.Entries)
	}
	if cs.Evictions == 0 {
		t.Fatal("working set exceeded the budget but nothing was LRU-evicted")
	}
}

// TestQueryMatch pins the fan-in semantics: prefix and glob matching,
// id-sorted results, shared budget split, deterministic truncation, and
// the zero-match empty (not error) answer.
func TestQueryMatch(t *testing.T) {
	db := New(Config{Shards: 4, Retention: RetentionConfig{RawCapacity: 1024, CompressBlock: 16}})
	ids := []string{
		"dc1/rack1/dev1", "dc1/rack1/dev2", "dc1/rack2/dev1",
		"dc2/rack1/dev1", "other/series",
	}
	const n = 100
	for _, id := range ids {
		fillSealed(db, id, n)
	}

	t.Run("prefix", func(t *testing.T) {
		res := db.QueryMatch("dc1/", time.Time{}, time.Time{}, 0, 0)
		if res.Matches != 3 || len(res.Results) != 3 || res.Truncated {
			t.Fatalf("matches=%d results=%d truncated=%v, want 3/3/false", res.Matches, len(res.Results), res.Truncated)
		}
		want := []string{"dc1/rack1/dev1", "dc1/rack1/dev2", "dc1/rack2/dev1"}
		for i, r := range res.Results {
			if r.ID != want[i] {
				t.Fatalf("result %d is %q, want %q (sorted)", i, r.ID, want[i])
			}
			if len(r.Points) != n {
				t.Fatalf("result %q has %d points, want %d", r.ID, len(r.Points), n)
			}
		}
	})
	t.Run("glob", func(t *testing.T) {
		res := db.QueryMatch("dc?/rack1/*", time.Time{}, time.Time{}, 0, 0)
		if res.Matches != 3 {
			t.Fatalf("glob matched %d, want 3", res.Matches)
		}
		res = db.QueryMatch("*dev1", time.Time{}, time.Time{}, 0, 0)
		if res.Matches != 3 {
			t.Fatalf("suffix glob matched %d, want 3", res.Matches)
		}
		res = db.QueryMatch("*", time.Time{}, time.Time{}, 0, 0)
		if res.Matches != len(ids) {
			t.Fatalf("* matched %d, want %d", res.Matches, len(ids))
		}
	})
	t.Run("budget-split", func(t *testing.T) {
		res := db.QueryMatch("dc1/", time.Time{}, time.Time{}, 30, 0)
		for _, r := range res.Results {
			if len(r.Points) > 10 {
				t.Fatalf("series %q got %d points of a 30-point budget over 3 series", r.ID, len(r.Points))
			}
			if !r.Thinned {
				t.Fatalf("series %q holds %d stored points but was not thinned to its 10-point share", r.ID, n)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		res := db.QueryMatch("dc", time.Time{}, time.Time{}, 0, 2)
		if res.Matches != 4 || len(res.Results) != 2 || !res.Truncated {
			t.Fatalf("matches=%d results=%d truncated=%v, want 4/2/true", res.Matches, len(res.Results), res.Truncated)
		}
		// Deterministic: smallest ids win.
		if res.Results[0].ID != "dc1/rack1/dev1" || res.Results[1].ID != "dc1/rack1/dev2" {
			t.Fatalf("truncation kept %q, %q — want the two smallest ids", res.Results[0].ID, res.Results[1].ID)
		}
	})
	t.Run("zero-matches", func(t *testing.T) {
		res := db.QueryMatch("nosuch/", time.Time{}, time.Time{}, 100, 10)
		if res.Matches != 0 || len(res.Results) != 0 || res.Truncated {
			t.Fatalf("zero-match query returned %+v, want empty", res)
		}
	})
	t.Run("window", func(t *testing.T) {
		from, to := start.Add(10*time.Second), start.Add(20*time.Second)
		res := db.QueryMatch("dc1/", from, to, 0, 0)
		for _, r := range res.Results {
			for _, p := range r.Points {
				if p.Time.Before(from) || !p.Time.Before(to) {
					t.Fatalf("series %q point at %v outside [%v, %v)", r.ID, p.Time, from, to)
				}
			}
		}
	})
}

// TestGlobMatch exercises the matcher directly, including the
// backtracking paths a query would rarely construct.
func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, id string
		want        bool
	}{
		{"", "", true},
		{"", "x", false},
		{"*", "", true},
		{"*", "anything/at/all", true},
		{"a*b", "ab", true},
		{"a*b", "aXYZb", true},
		{"a*b", "aXYZbc", false},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "abc", true},
		{"a*b*c", "aXcYb", false},
		{"?", "x", true},
		{"?", "", false},
		{"?", "xy", false},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"*.cpu", "dev1.cpu", true},
		{"*.cpu", "dev1.mem", false},
		{"a*a*a*a*b", "aaaaaaaaaaaaaaaa", false}, // pathological backtracking terminates
		{"a*a*a*a*", "aaaaaaaaaaaaaaaa", true},
	}
	for _, c := range cases {
		if got := globMatch(c.pattern, c.id); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pattern, c.id, got, c.want)
		}
	}
	// No metacharacters → prefix semantics, via matchesPattern.
	if !matchesPattern("dc1/", "dc1/rack/dev") {
		t.Error("prefix pattern must match its subtree")
	}
	if matchesPattern("dc1/rack/dev", "dc1/") {
		t.Error("prefix pattern must not match a shorter id")
	}
}

// TestCacheConcurrentReadersWriters is the -race soak: concurrent cached
// reads (point and pattern queries) against live ingest, seals and
// retention evictions. Run with -race in CI; correctness here is "no
// race, no panic, contract holds".
func TestCacheConcurrentReadersWriters(t *testing.T) {
	db := New(Config{Shards: 4, CacheBytes: 256 << 10,
		Retention: RetentionConfig{RawCapacity: 256, TierCapacity: 64, Tiers: 2, CompressBlock: 16}})
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("soak/dev%02d", i)
		fillSealed(db, ids[i], 128)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: keep appending (sealing and evicting) across all series.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 128
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					db.Append(id, series.Point{Time: start.Add(time.Duration(i+w*100000) * time.Second), Value: float64(i)})
				}
				i++
			}
		}(w)
	}
	// A sealer forcing active-tail seals mid-read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.SealAll()
			}
		}
	}()
	// Readers: cached point queries and pattern fan-ins.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[rng.Intn(len(ids))]
				from := start.Add(time.Duration(rng.Intn(256)) * time.Second)
				to := from.Add(time.Duration(1+rng.Intn(256)) * time.Second)
				if _, err := db.Query(id, from, to, 64); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				mres := db.QueryMatch("soak/*", from, to, 64, 4)
				if len(mres.Results) > 4 {
					t.Errorf("match returned %d results over the 4-series cap", len(mres.Results))
					return
				}
			}
		}(r)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	cs := db.Stats().Cache
	if cs.Bytes > cs.MaxBytes {
		t.Fatalf("cache occupancy %d over budget %d after soak", cs.Bytes, cs.MaxBytes)
	}
}
