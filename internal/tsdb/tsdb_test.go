package tsdb

import (
	"errors"
	"testing"
	"time"

	"repro/internal/series"
)

var start = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

func appendN(db *DB, id string, n int, interval time.Duration) {
	for i := 0; i < n; i++ {
		db.Append(id, series.Point{Time: start.Add(time.Duration(i) * interval), Value: float64(i)})
	}
}

func TestAppendQueryUnbounded(t *testing.T) {
	db := New(Config{})
	appendN(db, "a", 10, time.Second)
	res, err := db.Query("a", start.Add(2*time.Second), start.Add(5*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("query returned %d points, want 3", len(res.Points))
	}
	if len(res.Tiers) != 1 || res.Tiers[0].Tier != 0 {
		t.Fatalf("tiers = %+v, want raw only", res.Tiers)
	}
	if len(res.Aggregates) != 0 {
		t.Fatalf("raw query carried %d aggregates", len(res.Aggregates))
	}
	if _, err := db.Query("missing", start, start.Add(time.Hour), 0); !errors.Is(err, ErrNoSeries) {
		t.Fatalf("err = %v, want ErrNoSeries", err)
	}
	if st := db.Stats(); st.RawPoints+st.Buckets != 10 {
		t.Fatalf("points = %d, want 10", st.RawPoints+st.Buckets)
	}
	full, err := db.Full("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Points) != 10 {
		t.Fatalf("full returned %d points", len(full.Points))
	}
	ids := db.IDs()
	if len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("ids = %v", ids)
	}
}

// TestBoundedSeriesDegradesInsteadOfFailing is the tiered-retention
// acceptance test: a full raw store cascades into coarser tiers (min/max/
// mean summaries) and keeps accepting writes forever, instead of failing
// them the way the seed store did.
func TestBoundedSeriesDegradesInsteadOfFailing(t *testing.T) {
	db := New(Config{Retention: RetentionConfig{RawCapacity: 32, TierCapacity: 16, Tiers: 2}})
	appendN(db, "a", 1000, time.Second)

	st := db.Stats()
	if st.Appends != 1000 {
		t.Fatalf("appends = %d, want 1000", st.Appends)
	}
	// Eviction is block-granular: the raw store breathes within a quarter
	// of its capacity, and every append is still raw or was compacted.
	if st.RawPoints <= 32-8 || st.RawPoints > 32 {
		t.Fatalf("raw = %d, want within (24, 32]", st.RawPoints)
	}
	if got := st.Compacted + int64(st.RawPoints); got != 1000 {
		t.Fatalf("compacted %d + raw %d = %d, want 1000", st.Compacted, st.RawPoints, got)
	}
	if got, max := st.Retained(), 32+2*(16+1); got > max {
		t.Fatalf("retained %d points, capacity allows at most %d", got, max)
	}
	if st.Dropped == 0 {
		t.Fatal("a 1000-point stream through ~66 slots must eventually drop")
	}

	full, err := db.Full("a")
	if err != nil {
		t.Fatal(err)
	}
	// Degraded resolution, not absence: coarse-tier buckets summarize
	// multiple raw samples each.
	sawAggregated := false
	for _, a := range full.Aggregates {
		if a.Min > a.Mean || a.Mean > a.Max {
			t.Fatalf("bucket invariant violated: %+v", a)
		}
		if a.Count > 1 {
			sawAggregated = true
		}
	}
	if !sawAggregated {
		t.Fatal("no bucket aggregates multiple samples; resolution never degraded")
	}
	// The newest samples stay raw and exact.
	last := full.Points[len(full.Points)-1]
	if last.Value != 999 {
		t.Fatalf("newest retained value = %v, want 999 (raw)", last.Value)
	}
}

func TestNyquistDerivedTierWidths(t *testing.T) {
	rc := RetentionConfig{RawCapacity: 16, TierCapacity: 8, Tiers: 2}
	db := New(Config{Retention: rc})
	// The estimate→retain loop: the estimator says 0.05 Hz Nyquist rate;
	// the lossless tier buckets at no less than headroom×rate (≥ 2·f_max):
	// 1/(1.2·0.05) = 16.666666666 s floored to a whole number of the
	// series' one-second polls, 16 s (and 1m4s, not 1m6.666666664s, for
	// the second tier), so every bucket aggregates exactly 16 polls.
	db.SetNyquistRate("a", 0.05)
	appendN(db, "a", 400, time.Second)

	st, err := db.SeriesStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.NyquistRate != 0.05 {
		t.Fatalf("nyquist = %v", st.NyquistRate)
	}
	wantW1 := 16 * time.Second
	if len(st.Tiers) != 2 || st.Tiers[0].Width != wantW1 || st.Tiers[1].Width != 4*wantW1 {
		t.Fatalf("tier widths = %+v, want %v and %v", st.Tiers, wantW1, 4*wantW1)
	}
	// The lossless tier actually realizes the Nyquist saving: buckets
	// aggregate many oversampled polls.
	if st.Tiers[0].Buckets == 0 || st.Tiers[0].Samples < 2*int64(st.Tiers[0].Buckets) {
		t.Fatalf("tier 1 %d buckets / %d samples; expected >2 samples per bucket", st.Tiers[0].Buckets, st.Tiers[0].Samples)
	}
}

func TestRetuneAppliesToFutureBuckets(t *testing.T) {
	rc := RetentionConfig{RawCapacity: 8, TierCapacity: 8, Tiers: 2}
	db := New(Config{Retention: rc})
	appendN(db, "a", 40, time.Second) // tiers created on native 1 s grid
	before, err := db.SeriesStats("a")
	if err != nil {
		t.Fatal(err)
	}
	db.SetNyquistRate("a", 0.01)
	after, err := db.SeriesStats("a")
	if err != nil {
		t.Fatal(err)
	}
	// 1/(1.2·0.01) = 1m23.333333333s, floored to 83 of the one-second
	// polls the series was seen to arrive at.
	want := 83 * time.Second
	if after.Tiers[0].Width != want {
		t.Fatalf("retuned width = %v, want %v", after.Tiers[0].Width, want)
	}
	if before.Tiers[0].Width == after.Tiers[0].Width {
		t.Fatal("retune changed nothing")
	}
	// Ignored inputs leave the estimate alone.
	db.SetNyquistRate("a", -1)
	db.SetNyquistRate("a", 0)
	if got := db.NyquistRate("a"); got != 0.01 {
		t.Fatalf("nyquist after bad sets = %v, want 0.01", got)
	}
}

func TestQueryTierSelection(t *testing.T) {
	db := New(Config{Retention: RetentionConfig{RawCapacity: 50, TierCapacity: 100, Tiers: 2}})
	appendN(db, "a", 500, time.Second)
	// Recent window: answered from the raw store alone.
	recent, err := db.Query("a", start.Add(460*time.Second), start.Add(500*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recent.Tiers) != 1 || recent.Tiers[0].Tier != 0 {
		t.Fatalf("recent query tiers = %+v, want raw only", recent.Tiers)
	}
	if len(recent.Points) != 40 {
		t.Fatalf("recent points = %d, want 40", len(recent.Points))
	}
	// Deep history: the raw store no longer covers it; only tiers answer.
	old, err := db.Query("a", start, start.Add(100*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Points) == 0 {
		t.Fatal("old window lost entirely")
	}
	for _, ts := range old.Tiers {
		if ts.Tier == 0 {
			t.Fatalf("old query read the raw store: %+v", old.Tiers)
		}
	}
	// A window that falls entirely inside one compacted bucket still
	// gets that bucket's summary (overlap semantics, not start-in-range).
	narrow, err := db.Query("a", start.Add(10*time.Second), start.Add(11*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow.Points) == 0 {
		t.Fatal("sub-bucket window returned nothing despite retained summaries")
	}
	// Point budget: thinned, never over, and the newest sample survives.
	budget, err := db.Query("a", start, start.Add(500*time.Second), 25)
	if err != nil {
		t.Fatal(err)
	}
	if !budget.Thinned || len(budget.Points) > 25 {
		t.Fatalf("budget query: thinned=%v n=%d", budget.Thinned, len(budget.Points))
	}
	if got := budget.Points[len(budget.Points)-1].Value; got != 499 {
		t.Fatalf("thinning dropped the newest sample: last = %v, want 499", got)
	}
	for i := 1; i < len(budget.Points); i++ {
		if budget.Points[i].Time.Before(budget.Points[i-1].Time) {
			t.Fatal("stitched points out of order")
		}
	}
}

// TestBucketCoverageSurvivesRetune pins buckets to the coverage they
// were written with: a retune widening the tier grid must not let old
// narrow buckets answer (or phantom-cover) windows they never spanned.
func TestBucketCoverageSurvivesRetune(t *testing.T) {
	rc := RetentionConfig{RawCapacity: 4, TierCapacity: 8, Tiers: 1}
	db := New(Config{Retention: rc})
	appendN(db, "a", 12, time.Second) // tier buckets at the native 1 s grid, t=0..7
	rate := 0.01
	db.SetNyquistRate("a", rate) // future buckets ~83 s wide
	// (8.5 s, 9 s): no retained bucket covers it (each spans 1 s) and no
	// raw point falls in it. Judging old buckets by the live width would
	// phantom-cover this window with the bucket at t=7.
	res, err := db.Query("a", start.Add(8500*time.Millisecond), start.Add(9*time.Second), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 0 {
		t.Fatalf("window covered by nothing returned %d points (phantom coverage)", len(res.Points))
	}
	// The old buckets still answer the windows they do cover.
	res, err = db.Query("a", start.Add(3*time.Second), start.Add(3500*time.Millisecond), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Value != 3 {
		t.Fatalf("sub-bucket window = %+v, want the t=3 bucket", res.Points)
	}
}

func TestShardingSpreadsSeries(t *testing.T) {
	db := New(Config{})
	if sh := db.Stats().Shards; sh != 16 {
		t.Fatalf("default shards = %d, want 16", sh)
	}
	for i := 0; i < 64; i++ {
		db.Append(string(rune('a'+i%26))+string(rune('0'+i/26)), series.Point{Time: start, Value: 1})
	}
	st := db.Stats()
	if st.Series != 64 {
		t.Fatalf("series = %d", st.Series)
	}
	busy := 0
	for _, n := range st.SeriesPerShard {
		if n > 0 {
			busy++
		}
	}
	if busy < 8 {
		t.Fatalf("only %d of 16 shards used for 64 series; hash is not spreading", busy)
	}
	// A single-shard DB still works (the benchmark baseline shape).
	one := New(Config{Shards: 1})
	appendN(one, "x", 10, time.Second)
	if st := one.Stats(); st.RawPoints+st.Buckets != 10 {
		t.Fatalf("single-shard points = %d", st.RawPoints+st.Buckets)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	db := New(Config{Retention: RetentionConfig{RawCapacity: 4}})
	for _, id := range []string{"zz", "aa", "mm"} {
		appendN(db, id, 10, time.Second)
	}
	snap := db.Snapshot()
	if len(snap) != 3 || snap[0].ID != "aa" || snap[1].ID != "mm" || snap[2].ID != "zz" {
		t.Fatalf("snapshot = %+v", snap)
	}
	for _, s := range snap {
		if s.Appends != 10 || s.RawPoints != 4 {
			t.Fatalf("%s: appends=%d raw=%d", s.ID, s.Appends, s.RawPoints)
		}
		if s.RawOldest.IsZero() || !s.RawNewest.After(s.RawOldest) {
			t.Fatalf("%s: raw span %v..%v", s.ID, s.RawOldest, s.RawNewest)
		}
	}
	if _, err := db.SeriesStats("nope"); !errors.Is(err, ErrNoSeries) {
		t.Fatal("want ErrNoSeries")
	}
}

// TestNegativeTiersPlainBoundedRing checks Tiers < 0 expresses the
// seed-style retention: keep (about) the newest RawCapacity points,
// forget the rest — still without ever failing a write.
func TestNegativeTiersPlainBoundedRing(t *testing.T) {
	db := New(Config{Retention: RetentionConfig{RawCapacity: 8, Tiers: -1}})
	appendN(db, "a", 101, time.Second)
	st := db.Stats()
	if st.Appends != 101 || st.Buckets != 0 {
		t.Fatalf("stats = %+v, want 101 appends, 0 buckets", st)
	}
	if st.RawPoints <= 8-2 || st.RawPoints > 8 {
		t.Fatalf("raw = %d, want within (6, 8]", st.RawPoints)
	}
	if st.Dropped != int64(101-st.RawPoints) {
		t.Fatalf("dropped = %d, want %d", st.Dropped, 101-st.RawPoints)
	}
	if st.Compacted != 0 {
		t.Fatalf("compacted = %d, want 0 (nothing cascaded without tiers)", st.Compacted)
	}
	full, err := db.Full("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Points) != st.RawPoints || full.Points[0].Value != float64(101-st.RawPoints) {
		t.Fatalf("retained = %+v, want the newest %d", full.Points, st.RawPoints)
	}
}

func TestAppendUniform(t *testing.T) {
	db := New(Config{})
	u := &series.Uniform{Start: start, Interval: time.Second, Values: []float64{1, 2, 3}}
	if err := db.AppendUniform("u", u); err != nil {
		t.Fatal(err)
	}
	full, err := db.Full("u")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Points) != 3 || full.Points[2].Value != 3 {
		t.Fatalf("full = %+v", full.Points)
	}
}
