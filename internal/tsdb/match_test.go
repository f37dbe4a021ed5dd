package tsdb

import (
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
