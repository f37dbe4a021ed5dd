// Multi-series fan-in: one dashboard pull usually wants a family of
// series (every queue on a switch, every device in a rack), not one id.
// QueryMatch answers a prefix or glob over the id space in a single
// call, fanning the per-shard reads out in parallel and splitting one
// point budget across the matched series so the response size stays
// bounded no matter how many series the pattern catches.

package tsdb

import (
	"sort"
	"sync"
	"time"
)

// MatchResult is the answer to a pattern query.
type MatchResult struct {
	// Results holds one QueryResult per selected series, sorted by id.
	Results []*QueryResult
	// Matches is the number of series the pattern matched, before any
	// maxSeries cap — when Truncated, it exceeds len(Results).
	Matches int
	// Truncated reports that more series matched than maxSeries allowed;
	// the lexicographically smallest ids were kept (deterministic, so
	// paging dashboards see a stable prefix).
	Truncated bool
}

// matchesPattern reports whether id matches pattern. A pattern with no
// metacharacters is a prefix match (the dashboard namespace convention:
// "dc1/rack3/" selects the subtree); '*' matches any run of bytes
// (including '/'), '?' matches exactly one byte.
func matchesPattern(pattern, id string) bool {
	if !hasGlobMeta(pattern) {
		return len(id) >= len(pattern) && id[:len(pattern)] == pattern
	}
	return globMatch(pattern, id)
}

func hasGlobMeta(pattern string) bool {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '*' || pattern[i] == '?' {
			return true
		}
	}
	return false
}

// globMatch is the classic iterative wildcard matcher with single-star
// backtracking: linear in len(id) for patterns with one star, worst-case
// quadratic (never exponential) for pathological multi-star patterns.
func globMatch(pattern, id string) bool {
	p, s := 0, 0
	star, ss := -1, 0
	for s < len(id) {
		switch {
		case p < len(pattern) && (pattern[p] == '?' || pattern[p] == id[s]):
			p++
			s++
		case p < len(pattern) && pattern[p] == '*':
			star, ss = p, s
			p++
		case star >= 0:
			// Backtrack: let the last star swallow one more byte.
			ss++
			p, s = star+1, ss
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '*' {
		p++
	}
	return p == len(pattern)
}

// QueryMatch runs Query over every series whose id matches pattern (see
// matchesPattern for the prefix/glob semantics) and returns the results
// sorted by id. maxSeries > 0 caps how many series are answered (the
// smallest ids win, Truncated reports the cut); maxPoints > 0 is a
// shared budget split evenly across the selected series, every series
// getting at least one point. Shards are read in parallel under their
// read locks. A pattern matching nothing returns an empty result, not
// an error — dashboards poll patterns before the fleet reports in.
func (db *DB) QueryMatch(pattern string, from, to time.Time, maxPoints, maxSeries int) *MatchResult {
	// Phase 1: collect matching ids. Cheap (no decoding), so one pass
	// under each shard's read lock in turn.
	var ids []string
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for id := range sh.series {
			if matchesPattern(pattern, id) {
				ids = append(ids, id)
			}
		}
		sh.mu.RUnlock()
	}
	res := &MatchResult{Matches: len(ids)}
	if len(ids) == 0 {
		return res
	}
	sort.Strings(ids)
	if maxSeries > 0 && len(ids) > maxSeries {
		ids = ids[:maxSeries]
		res.Truncated = true
	}
	perBudget := 0
	if maxPoints > 0 {
		perBudget = maxPoints / len(ids)
		if perBudget < 1 {
			perBudget = 1
		}
	}
	// Phase 2: group the selected ids by shard and fan the reads out, one
	// goroutine per shard with series to answer, each under its shard's
	// read lock. A series can disappear between phases only by never
	// having existed — the engine has no deletes — but the nil check
	// keeps the contract local.
	byShard := make(map[uint32][]string)
	for _, id := range ids {
		k := fnv32a(id) % uint32(len(db.shards))
		byShard[k] = append(byShard[k], id)
	}
	out := make([]*QueryResult, 0, len(ids))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for k, shardIDs := range byShard {
		wg.Add(1)
		go func(sh *shard, shardIDs []string) {
			defer wg.Done()
			local := make([]*QueryResult, 0, len(shardIDs))
			sh.mu.RLock()
			for _, id := range shardIDs {
				if m := sh.series[id]; m != nil {
					local = append(local, m.query(id, from, to, perBudget))
				}
			}
			sh.mu.RUnlock()
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}(&db.shards[k], shardIDs)
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	res.Results = out
	return res
}
