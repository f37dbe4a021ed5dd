package tsdb

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/series"
)

// The parent-commit differential: a seeded script over the public API
// whose full ExportSeries + Query dump was written by commit bdd626f (the
// last build that kept time.Time inside the store) and must repeat line
// for line — except the stats lines' compressed= figures, which count
// sealed bucket payloads and were restated when the bucket codec changed
// (PR 18: 17 lines, each old → new in CHANGES.md; no other line moved),
// and the four series whose estimate-derived width exceeds their poll
// interval (decimal-1hz, pre1970, odd-width, capped), whose tier widths,
// buckets and everything derived from buckets were restated when widths
// became whole numbers of poll intervals (PR 19; counts in CHANGES.md).
// No raw or active line has ever moved, and dups, jitter and span are
// still bdd626f's lines. It uses only exported names, so the same file
// compiles there:
//
//	NYQ_GOLDEN_DIR=<dir> go test ./internal/tsdb -run TestParentDifferential
//
// writes <dir>/parent_differential.golden instead of comparing.

// goldenOp is one step of a series' script: an append, or (rate != 0) a
// retention retune.
type goldenOp struct {
	p    series.Point
	rate float64
}

// goldenScript builds every series' steps from one seed. Each series
// stresses one thing the int64 representation could get wrong.
func goldenScript() map[string][]goldenOp {
	rng := rand.New(rand.NewSource(17))
	t0 := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	minAppend := time.Unix(0, math.MinInt64).Add(365 * 24 * time.Hour)
	maxAppend := time.Unix(0, math.MaxInt64).Add(-365 * 24 * time.Hour)
	out := map[string][]goldenOp{}
	add := func(id string, ts time.Time, v float64) {
		out[id] = append(out[id], goldenOp{p: series.Point{Time: ts, Value: v}})
	}
	tune := func(id string, rate float64) { out[id] = append(out[id], goldenOp{rate: rate}) }

	// Two-decimal telemetry at 1 Hz, retuned four times mid-stream.
	for i := 0; i < 900; i++ {
		switch i {
		case 100:
			tune("decimal-1hz", 0.2)
		case 300:
			tune("decimal-1hz", 0.05)
		case 500:
			tune("decimal-1hz", 0.31)
		case 700:
			tune("decimal-1hz", 0.05)
		}
		v := math.Round((50+10*math.Sin(float64(i)/20)+rng.Float64())*100) / 100
		add("decimal-1hz", t0.Add(time.Duration(i)*time.Second), v)
	}
	// A jittered cadence with no estimate: the gap EWMA sizes the tiers.
	ts := t0
	for i := 0; i < 700; i++ {
		add("jitter", ts, rng.NormFloat64())
		ts = ts.Add(time.Second + time.Duration(rng.Int63n(int64(600*time.Millisecond))) - 300*time.Millisecond)
	}
	// Duplicate timestamps: every third sample repeats its predecessor's.
	ts = t0
	for i := 0; i < 600; i++ {
		if i%3 != 2 {
			ts = ts.Add(10 * time.Second)
		}
		add("dups", ts, float64(i%11)/4)
		if i%200 == 150 {
			add("dups", ts.Add(-time.Nanosecond), -1) // refused: out of order
		}
	}
	// Pre-1970 instants crossing the epoch, on an 8⅓ s grid.
	tune("pre1970", 0.1)
	for i := 0; i < 1500; i++ {
		add("pre1970", time.Date(1969, 12, 31, 23, 50, 0, 0, time.UTC).Add(time.Duration(i)*time.Second), float64(i%60))
	}
	// A width that divides no second (1/(1.2·1.19) s), far before the epoch,
	// with gaps that skip grid cells.
	tune("odd-width", 1.19)
	ts = time.Date(1931, 3, 7, 11, 13, 17, 123456789, time.UTC)
	for i := 0; i < 1200; i++ {
		add("odd-width", ts, math.Round(rng.Float64()*1000)/10)
		ts = ts.Add(250 * time.Millisecond)
		if i%97 == 96 {
			ts = ts.Add(time.Duration(rng.Int63n(int64(9 * time.Second))))
		}
	}
	// A rate so low the width caps at maxTierWidth, retuned off the cap and
	// back while buckets are open.
	tune("capped", 1e-12)
	ts = time.Date(1990, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 500; i++ {
		switch i {
		case 200:
			tune("capped", 1.0/(400*24*3600))
		case 350:
			tune("capped", 1e-12)
		}
		add("capped", ts, float64(i))
		ts = ts.Add(30 * 24 * time.Hour)
	}
	// Both ends of the accepted range in one series: the inter-sample gap
	// saturates, and the edge points cascade into capped tiers.
	add("span", minAppend.Add(-time.Nanosecond), 0) // refused: out of range, no prior sample
	add("span", minAppend, 1)
	add("span", minAppend.Add(time.Nanosecond), 2)
	add("span", minAppend.Add(-time.Nanosecond), 0) // refused: older than the newest sample
	add("span", maxAppend.Add(time.Nanosecond), 0)  // refused: out of range
	for i := 0; i < 40; i++ {
		add("span", minAppend.Add(time.Duration(i+1)*100*24*time.Hour), float64(i))
	}
	for i := 0; i < 120; i++ {
		add("span", maxAppend, float64(i)/8)
	}
	return out
}

func goldenNano(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return fmt.Sprint(t.UnixNano())
}

func goldenBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func goldenBucket(b BucketSnapshot) string {
	return fmt.Sprintf("%s %s %s %s %s %d", goldenNano(b.Start), goldenNano(b.End), goldenBits(b.Min), goldenBits(b.Max), goldenBits(b.Sum), b.Count)
}

// goldenWindow is one query of the dump; points selects whether its
// result is rendered in full or as its shape only.
type goldenWindow struct {
	name     string
	from, to time.Time
	max      int
	points   bool
}

// goldenDump renders everything the store holds and answers: every
// series' exported state and stats, then (queries set) a fixed set of
// windows over it. Instants are UnixNano, floats bit patterns.
func goldenDump(t *testing.T, w *strings.Builder, db *DB, queries bool) {
	t.Helper()
	snaps := map[string]SeriesSnapshot{}
	if err := db.ExportSeries(func(s SeriesSnapshot) error { snaps[s.ID] = s; return nil }); err != nil {
		t.Fatal(err)
	}
	for _, id := range db.IDs() {
		s := snaps[id]
		last := "-"
		if s.HaveLast {
			last = goldenNano(s.LastTime)
		}
		fmt.Fprintf(w, "series %s nyquist=%s gap=%d last=%s appends=%d compacted=%d dropped=%d\n",
			id, goldenBits(s.NyquistRate), s.Gap, last, s.Appends, s.Compacted, s.Dropped)
		for i, blk := range s.Raw {
			fmt.Fprintf(w, "raw %d n=%d first=%s last=%s data=%s\n", i, blk.Len(), goldenNano(blk.First()), goldenNano(blk.Last()), hex.EncodeToString(blk.Data()))
		}
		for _, p := range s.Active {
			fmt.Fprintf(w, "active %s %s\n", goldenNano(p.Time), goldenBits(p.Value))
		}
		for k, tr := range s.Tiers {
			fmt.Fprintf(w, "tier %d width=%d buckets=%d\n", k+1, tr.Width, len(tr.Buckets))
			for _, b := range tr.Buckets {
				fmt.Fprintf(w, "b %s\n", goldenBucket(b))
			}
			if tr.Cur != nil {
				fmt.Fprintf(w, "cur %s\n", goldenBucket(*tr.Cur))
			}
		}
		st, err := db.SeriesStats(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "stats raw=%d [%s, %s] compressed=%d\n", st.RawPoints, goldenNano(st.RawOldest), goldenNano(st.RawNewest), st.CompressedBytes)
		for k, ts := range st.Tiers {
			fmt.Fprintf(w, "stats tier %d width=%d buckets=%d samples=%d [%s, %s]\n", k+1, ts.Width, ts.Buckets, ts.Samples, goldenNano(ts.Oldest), goldenNano(ts.Newest))
		}
		if !queries {
			continue
		}
		full, err := db.Full(id)
		if err != nil {
			t.Fatal(err)
		}
		goldenQuery(w, "full", full, true)
		if len(full.Points) < 8 {
			continue
		}
		n := len(full.Points)
		q1, mid, q3 := full.Points[n/4].Time, full.Points[n/2].Time, full.Points[3*n/4].Time
		windows := []goldenWindow{
			{"quartiles", q1, q3, 0, true},
			{"quartiles thinned", q1, q3, 17, true},
			{"open start", time.Time{}, mid, 0, false},
			{"open end", mid, time.Time{}, 0, false},
			{"one nanosecond", mid, mid.Add(time.Nanosecond), 0, true},
			{"before everything", time.Time{}, full.Points[0].Time, 0, true},
			{"after everything", full.Points[n-1].Time.Add(time.Nanosecond), time.Time{}, 0, true},
			{"outside int64 nanoseconds", time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC), 0, false},
			{"inverted", q3, q1, 0, true},
		}
		// A window cut exactly on a bucket's coverage: [start, next start).
		if len(full.Aggregates) >= 4 {
			a := full.Aggregates[len(full.Aggregates)/2:]
			windows = append(windows, goldenWindow{"one bucket", a[0].Time, a[1].Time, 0, true})
		}
		for _, q := range windows {
			res, err := db.Query(id, q.from, q.to, q.max)
			if err != nil {
				t.Fatal(err)
			}
			goldenQuery(w, q.name, res, q.points)
		}
	}
}

// goldenQuery renders one result: always its shape, and (points set) every
// point and aggregate.
func goldenQuery(w *strings.Builder, name string, res *QueryResult, points bool) {
	fmt.Fprintf(w, "query %q points=%d aggregates=%d thinned=%v tiers=", name, len(res.Points), len(res.Aggregates), res.Thinned)
	for _, ts := range res.Tiers {
		fmt.Fprintf(w, "[%d %d %d]", ts.Tier, ts.Width, ts.Points)
	}
	if n := len(res.Points); n > 0 {
		fmt.Fprintf(w, " span=[%s, %s]", goldenNano(res.Points[0].Time), goldenNano(res.Points[n-1].Time))
	}
	w.WriteByte('\n')
	if !points {
		return
	}
	for _, p := range res.Points {
		fmt.Fprintf(w, "p %s %s\n", goldenNano(p.Time), goldenBits(p.Value))
	}
	for _, a := range res.Aggregates {
		fmt.Fprintf(w, "a %s %s %s %s %d\n", goldenNano(a.Time), goldenBits(a.Min), goldenBits(a.Max), goldenBits(a.Mean), a.Count)
	}
}

// goldenRun plays the script: the first half of every series into one
// store, an export into a store with a smaller block length and smaller
// capacities (the restore re-seals the tail and cascades the overflow),
// the second half into that. Every refused append is part of the dump.
func goldenRun(t *testing.T) string {
	t.Helper()
	script := goldenScript()
	ids := make([]string, 0, len(script))
	for id := range script {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var w strings.Builder
	play := func(db *DB, half int) {
		for _, id := range ids {
			ops := script[id]
			lo, hi := 0, len(ops)/2
			if half == 1 {
				lo, hi = hi, len(ops)
			}
			for i, op := range ops[lo:hi] {
				if op.rate != 0 {
					db.SetNyquistRate(id, op.rate)
				} else if err := db.Append(id, op.p); err != nil {
					fmt.Fprintf(&w, "refused %s op %d: %v\n", id, lo+i, err)
				}
			}
		}
	}
	first := New(Config{Shards: 2, Retention: RetentionConfig{RawCapacity: 64, TierCapacity: 32, Tiers: 2, CompressBlock: 16}})
	play(first, 0)
	w.WriteString("== first half\n")
	goldenDump(t, &w, first, false)

	second := New(Config{Shards: 3, Retention: RetentionConfig{RawCapacity: 48, TierCapacity: 24, Tiers: 2, CompressBlock: 8}})
	if err := first.ExportSeries(func(s SeriesSnapshot) error { second.RestoreSeries(s); return nil }); err != nil {
		t.Fatal(err)
	}
	w.WriteString("== restored\n")
	goldenDump(t, &w, second, false)
	play(second, 1)
	w.WriteString("== second half\n")
	goldenDump(t, &w, second, true)
	return w.String()
}

func TestParentDifferential(t *testing.T) {
	got := goldenRun(t)
	if dir := os.Getenv("NYQ_GOLDEN_DIR"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "parent_differential.golden"), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent_differential.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("differs from the parent build's dump at line %d:\n got %q\nwant %q", i+1, gl[i], append(wl, "")[min(i, len(wl))])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("dump has %d lines, the parent build's %d", len(gl), len(wl))
	}
}
