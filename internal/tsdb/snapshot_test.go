package tsdb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/series"
)

var snapStart = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// TestStrictAppendRejects locks the serving-path contract: a strict
// store rejects out-of-order and unrepresentable timestamps without
// mutating anything, while the lenient default keeps absorbing them.
func TestStrictAppendRejects(t *testing.T) {
	db := New(Config{StrictAppend: true, Retention: RetentionConfig{RawCapacity: 64, CompressBlock: 8}})
	if !db.Strict() {
		t.Fatal("Strict() = false on a StrictAppend store")
	}
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

	lenient := New(Config{})
	lenient.Append("s", series.Point{Time: snapStart.Add(time.Hour)})
	if err := lenient.Append("s", series.Point{Time: snapStart}); err != nil {
		t.Fatalf("lenient store rejected an out-of-order append: %v", err)
	}
}

// TestSealHook asserts the hook sees exactly the appended points, in
// order, as blocks seal — including the forced SealAll tail.
func TestSealHook(t *testing.T) {
	db := New(Config{StrictAppend: true, Retention: RetentionConfig{RawCapacity: 1024, CompressBlock: 16}})
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
	b := NewBlockBuilder()
	for i := 0; i < 100; i++ {
		if err := b.Append(snapStart.Add(time.Duration(i)*30*time.Second), float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	blk := b.Finish()
	re, err := RebuildBlock(blk.Data(), blk.Len())
	if err != nil {
		t.Fatalf("RebuildBlock: %v", err)
	}
	if !re.First().Equal(blk.First()) || !re.Last().Equal(blk.Last()) {
		t.Fatalf("rebuilt bounds [%v, %v], want [%v, %v]", re.First(), re.Last(), blk.First(), blk.Last())
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
				StrictAppend: true,
				Retention:    RetentionConfig{RawCapacity: 256, TierCapacity: 64, Tiers: 2, CompressBlock: compress},
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
