package tsdb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/series"
)

var snapStart = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// TestAppendRejects locks the store's write contract: out-of-order
// and out-of-range timestamps are rejected without mutating anything.
func TestAppendRejects(t *testing.T) {
	db := New(Config{Retention: RetentionConfig{RawCapacity: 64, CompressBlock: 8}})
	for i := 0; i < 10; i++ {
		if err := db.Append("s", series.Point{Time: snapStart.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
			t.Fatalf("in-order append %d: %v", i, err)
		}
	}
	// Equal timestamps are allowed (production pollers emit duplicates).
	if err := db.Append("s", series.Point{Time: snapStart.Add(9 * time.Second), Value: 9.5}); err != nil {
		t.Fatalf("equal-timestamp append: %v", err)
	}
	before := db.Stats().Appends
	if err := db.Append("s", series.Point{Time: snapStart, Value: -1}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order append: got %v, want ErrOutOfOrder", err)
	}
	if err := db.Append("s", series.Point{Time: time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC), Value: 0}); !errors.Is(err, ErrTimeRange) {
		t.Fatalf("far-future append: got %v, want ErrTimeRange", err)
	}
	if got := db.Stats().Appends; got != before {
		t.Fatalf("rejected appends still counted: %d -> %d", before, got)
	}
}

// TestSealHook asserts the hook sees exactly the appended points, in
// order, as blocks seal — including the forced SealAll tail.
func TestSealHook(t *testing.T) {
	db := New(Config{Retention: RetentionConfig{RawCapacity: 1024, CompressBlock: 16}})
	var got []series.Point
	db.OnSeal(func(id string, blk Block) {
		if id != "s" {
			t.Errorf("hook id = %q, want s", id)
		}
		pts, err := blk.Points(nil)
		if err != nil {
			t.Errorf("hook block decode: %v", err)
		}
		got = append(got, pts...)
	})
	const n = 16*3 + 5 // three sealed blocks plus an unsealed tail
	var want []series.Point
	for i := 0; i < n; i++ {
		p := series.Point{Time: snapStart.Add(time.Duration(i) * time.Second), Value: float64(i)}
		want = append(want, p)
		if err := db.Append("s", p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if len(got) != 16*3 {
		t.Fatalf("hook saw %d points before SealAll, want %d", len(got), 16*3)
	}
	if sealed := db.SealAll(); sealed != 1 {
		t.Fatalf("SealAll sealed %d blocks, want 1", sealed)
	}
	if len(got) != n {
		t.Fatalf("hook saw %d points after SealAll, want %d", len(got), n)
	}
	for i := range want {
		if !got[i].Time.Equal(want[i].Time) || got[i].Value != want[i].Value {
			t.Fatalf("hook point %d = %v, want %v", i, got[i], want[i])
		}
	}
	// SealAll with nothing active is a no-op.
	if sealed := db.SealAll(); sealed != 0 {
		t.Fatalf("second SealAll sealed %d blocks, want 0", sealed)
	}
}

// TestRebuildBlock round-trips a sealed block through its persisted form.
func TestRebuildBlock(t *testing.T) {
	pts := make([]series.Point, 100)
	for i := range pts {
		pts[i] = series.Point{Time: snapStart.Add(time.Duration(i) * 30 * time.Second), Value: float64(i % 7)}
	}
	blk, err := EncodeBlock(pts)
	if err != nil {
		t.Fatal(err)
	}
	re, err := RebuildBlock(blk.Data(), blk.Len())
	if err != nil {
		t.Fatalf("RebuildBlock: %v", err)
	}
	if re.firstNano != blk.firstNano || re.lastNano != blk.lastNano {
		t.Fatalf("rebuilt bounds [%d, %d], want [%d, %d]", re.firstNano, re.lastNano, blk.firstNano, blk.lastNano)
	}
	orig, _ := blk.Points(nil)
	back, err := re.Points(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(back) {
		t.Fatalf("rebuilt %d points, want %d", len(back), len(orig))
	}
	for i := range orig {
		if !orig[i].Time.Equal(back[i].Time) || orig[i].Value != back[i].Value {
			t.Fatalf("point %d differs after rebuild", i)
		}
	}
	if _, err := RebuildBlock(blk.Data()[:len(blk.Data())/2], blk.Len()); err == nil {
		t.Fatal("RebuildBlock accepted a truncated payload")
	}
	if _, err := RebuildBlock(nil, 0); err == nil {
		t.Fatal("RebuildBlock accepted an empty block")
	}
}

// fillSnapshotDB writes enough points to exercise sealed blocks, the
// active tail, tier cascades and a retuned grid.
func fillSnapshotDB(db *DB, seriesN, pointsN int) {
	for s := 0; s < seriesN; s++ {
		id := fmt.Sprintf("dev%02d/metric", s)
		db.SetNyquistRate(id, 0.05)
		for i := 0; i < pointsN; i++ {
			db.Append(id, series.Point{
				Time:  snapStart.Add(time.Duration(i) * time.Second),
				Value: float64(i%37) + float64(s),
			})
		}
	}
}

// TestExportRestoreRoundTrip asserts a restored DB answers every query
// identically to the original — raw, tiers, aggregates and stats.
func TestExportRestoreRoundTrip(t *testing.T) {
	for _, compress := range []int{16, 128} {
		t.Run(fmt.Sprintf("compress=%d", compress), func(t *testing.T) {
			cfg := Config{
				Retention: RetentionConfig{RawCapacity: 256, TierCapacity: 64, Tiers: 2, CompressBlock: compress},
			}
			src := New(cfg)
			fillSnapshotDB(src, 3, 2000)

			dst := New(cfg)
			if err := src.ExportSeries(func(s SeriesSnapshot) error { dst.RestoreSeries(s); return nil }); err != nil {
				t.Fatalf("export/restore: %v", err)
			}

			for _, id := range src.IDs() {
				a, err := src.Query(id, time.Time{}, time.Time{}, 0)
				if err != nil {
					t.Fatal(err)
				}
				b, err := dst.Query(id, time.Time{}, time.Time{}, 0)
				if err != nil {
					t.Fatalf("restored query %s: %v", id, err)
				}
				if len(a.Points) != len(b.Points) {
					t.Fatalf("%s: restored %d points, want %d", id, len(b.Points), len(a.Points))
				}
				for i := range a.Points {
					if !a.Points[i].Time.Equal(b.Points[i].Time) || a.Points[i].Value != b.Points[i].Value {
						t.Fatalf("%s point %d: %v != %v", id, i, b.Points[i], a.Points[i])
					}
				}
				if len(a.Aggregates) != len(b.Aggregates) {
					t.Fatalf("%s: restored %d aggregates, want %d", id, len(b.Aggregates), len(a.Aggregates))
				}
				sa, _ := src.SeriesStats(id)
				sb, err := dst.SeriesStats(id)
				if err != nil {
					t.Fatal(err)
				}
				if sa.Appends != sb.Appends || sa.Compacted != sb.Compacted || sa.Dropped != sb.Dropped {
					t.Fatalf("%s: restored counters (%d,%d,%d), want (%d,%d,%d)",
						id, sb.Appends, sb.Compacted, sb.Dropped, sa.Appends, sa.Compacted, sa.Dropped)
				}
				if sa.NyquistRate != sb.NyquistRate {
					t.Fatalf("%s: restored nyquist %v, want %v", id, sb.NyquistRate, sa.NyquistRate)
				}
			}

			// The restored store keeps appending where the original left
			// off: strict ordering must hold against the restored
			// watermark, and new points must land.
			id := "dev00/metric"
			if err := dst.Append(id, series.Point{Time: snapStart, Value: 0}); !errors.Is(err, ErrOutOfOrder) {
				t.Fatalf("restored store accepted a pre-watermark append: %v", err)
			}
			if err := dst.Append(id, series.Point{Time: snapStart.Add(3000 * time.Second), Value: 1}); err != nil {
				t.Fatalf("restored store rejected a fresh append: %v", err)
			}
		})
	}
}

// TestAppendRangeMargin pins the encodability guarantee of the append
// door at both ends of the accepted range. Just inside: the point lands
// and survives a full raw → tier-1 → tier-2 cascade at the widest tier
// width (every bucket bound stays int64-nanosecond representable, so
// every seal encodes) and an export/restore round trip. Just outside:
// ErrTimeRange, nothing lands. The third case walks the low edge over
// non-nested tier grids, where each cascade level's truncation can fall
// further below the oldest point than the margin covers (gridFloor).
func TestAppendRangeMargin(t *testing.T) {
	// A tier-0 width whose grid start for minAppendTime truncates, on the
	// (non-nested) maxTierWidth grid of the deeper tiers, to before the
	// representable range.
	var crooked time.Duration
	for w := maxTierWidth / 4; w < maxTierWidth; w += 24 * time.Hour {
		if minAppendTime.Truncate(w).Truncate(maxTierWidth).Before(minUnixNano) {
			crooked = w
			break
		}
	}
	if crooked == 0 {
		t.Fatal("no tier-0 width walks the tier-1 grid start out of range; the gridFloor case is untested")
	}
	yearly := func(from time.Time, n int) []time.Time {
		out := make([]time.Time, n)
		for i := range out {
			out[i] = from.Add(time.Duration(i) * maxTierWidth)
		}
		return out
	}
	high := yearly(maxAppendTime.Add(-39*maxTierWidth), 40)
	for i := 0; i < 8; i++ { // equal stamps push the edge point itself into the tiers
		high = append(high, maxAppendTime)
	}
	cases := []struct {
		name    string
		width   time.Duration // tier-0 width to tune to
		outside time.Time
		stamps  []time.Time
	}{
		{"low edge", maxTierWidth, minAppendTime.Add(-time.Nanosecond), yearly(minAppendTime, 40)},
		{"high edge", maxTierWidth, maxAppendTime.Add(time.Nanosecond), high},
		{"low edge, non-nested grids", crooked, minAppendTime.Add(-time.Nanosecond), yearly(minAppendTime, 40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 1, Retention: RetentionConfig{RawCapacity: 4, TierCapacity: 4, Tiers: 2, CompressBlock: 1}}
			db := New(cfg)
			const id = "edge"
			// The rate whose first-tier width (1 / (Headroom × rate)) is tc.width.
			db.SetNyquistRate(id, 1/(1.2*tc.width.Seconds()))
			if err := db.Append(id, series.Point{Time: tc.outside}); err != ErrTimeRange {
				t.Fatalf("append just outside the range: %v, want ErrTimeRange", err)
			}
			for i, ts := range tc.stamps {
				if err := db.Append(id, series.Point{Time: ts, Value: float64(i)}); err != nil {
					t.Fatalf("append %d at %v (inside the range): %v", i, ts, err)
				}
			}
			before := renderDB(t, db)
			if err := db.Append(id, series.Point{Time: tc.outside}); err != ErrTimeRange && err != ErrOutOfOrder {
				t.Fatalf("append just outside the range: %v", err)
			}
			if after := renderDB(t, db); after != before {
				t.Fatalf("a rejected append changed the store:\nbefore: %s\nafter:  %s", before, after)
			}
			st, err := db.SeriesStats(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Appends != int64(len(tc.stamps)) {
				t.Fatalf("Appends = %d, want %d", st.Appends, len(tc.stamps))
			}
			inTiers := int64(0)
			for k, ts := range st.Tiers {
				if ts.Samples == 0 {
					t.Fatalf("tier %d is empty: the cascade did not reach it", k+1)
				}
				if k > 0 && ts.Width != maxTierWidth {
					t.Fatalf("tier %d width %v, want the cap %v", k+1, ts.Width, maxTierWidth)
				}
				if !unixNanoSafe(ts.Oldest) || !unixNanoSafe(ts.Newest) {
					t.Fatalf("tier %d spans [%v, %v], outside the encodable range", k+1, ts.Oldest, ts.Newest)
				}
				inTiers += ts.Samples
			}
			if st.Dropped == 0 {
				t.Fatal("nothing aged out of the last tier: the cascade is not full")
			}
			if got := int64(st.RawPoints) + inTiers + st.Dropped; got != st.Appends {
				t.Fatalf("conservation: raw %d + tiered %d + dropped %d = %d, want %d", st.RawPoints, inTiers, st.Dropped, got, st.Appends)
			}
			twin := New(cfg)
			if err := db.ExportSeries(func(s SeriesSnapshot) error { twin.RestoreSeries(s); return nil }); err != nil {
				t.Fatal(err)
			}
			if got := renderDB(t, twin); got != before {
				t.Fatalf("export/restore round trip diverges:\nrestored: %s\noriginal: %s", got, before)
			}
		})
	}
}
