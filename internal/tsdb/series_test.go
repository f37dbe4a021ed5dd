package tsdb

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"repro/internal/series"
)

// TestAppendVerdictTable pins which refusal a point draws at both ends of
// the accepted range, with and without a prior sample: order is judged
// first, against the newest accepted instant, then the range. A series
// restored with a watermark below the accepted range (a directory from
// before the margin existed) keeps that precedence point for point.
func TestAppendVerdictTable(t *testing.T) {
	const ns = time.Nanosecond
	mid := snapStart
	below := minUnixNano.Add(time.Hour) // representable, outside the door's range
	cases := []struct {
		name  string
		prior *time.Time // newest accepted sample, nil = fresh series
		at    time.Time
		want  error
	}{
		{"fresh, just below the range", nil, minAppendTime.Add(-ns), ErrTimeRange},
		{"fresh, first instant of the range", nil, minAppendTime, nil},
		{"fresh, last instant of the range", nil, maxAppendTime, nil},
		{"fresh, just above the range", nil, maxAppendTime.Add(ns), ErrTimeRange},
		{"fresh, year 1", nil, time.Time{}, ErrTimeRange},
		{"fresh, year 9999", nil, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC), ErrTimeRange},

		{"after a sample, just below the range", &mid, minAppendTime.Add(-ns), ErrOutOfOrder},
		{"after a sample, first instant of the range", &mid, minAppendTime, ErrOutOfOrder},
		{"after a sample, year 1", &mid, time.Time{}, ErrOutOfOrder},
		{"after a sample, one nanosecond older", &mid, mid.Add(-ns), ErrOutOfOrder},
		{"after a sample, the same instant", &mid, mid, nil},
		{"after a sample, last instant of the range", &mid, maxAppendTime, nil},
		{"after a sample, just above the range", &mid, maxAppendTime.Add(ns), ErrTimeRange},
		{"after a sample, year 9999", &mid, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC), ErrTimeRange},

		{"newest at the low edge, just below it", &minAppendTime, minAppendTime.Add(-ns), ErrOutOfOrder},
		{"newest at the low edge, the edge again", &minAppendTime, minAppendTime, nil},
		{"newest at the high edge, just below it", &maxAppendTime, maxAppendTime.Add(-ns), ErrOutOfOrder},
		{"newest at the high edge, the edge again", &maxAppendTime, maxAppendTime, nil},
		{"newest at the high edge, just above it", &maxAppendTime, maxAppendTime.Add(ns), ErrTimeRange},

		{"watermark below the range, older than it", &below, below.Add(-ns), ErrOutOfOrder},
		{"watermark below the range, newer but still outside", &below, below.Add(ns), ErrTimeRange},
		{"watermark below the range, inside the range", &below, minAppendTime, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := New(Config{Shards: 1, Retention: RetentionConfig{RawCapacity: 16, CompressBlock: 4}})
			switch {
			case tc.prior == &below:
				db.RestoreSeries(SeriesSnapshot{ID: "s", HaveLast: true, LastTime: below, Appends: 1})
			case tc.prior != nil:
				if err := db.Append("s", series.Point{Time: *tc.prior, Value: 1}); err != nil {
					t.Fatalf("prior sample at %v: %v", *tc.prior, err)
				}
			}
			before := db.Stats()
			if err := db.Append("s", series.Point{Time: tc.at, Value: 2}); err != tc.want {
				t.Fatalf("Append at %v = %v, want %v", tc.at, err, tc.want)
			}
			landed := 0
			if tc.want == nil {
				landed = 1
			}
			if after := db.Stats(); after.Appends != before.Appends+int64(landed) || after.RawPoints != before.RawPoints+landed {
				t.Fatalf("verdict %v, but appends went %d → %d and raw points %d → %d", tc.want, before.Appends, after.Appends, before.RawPoints, after.RawPoints)
			}
		})
	}
}

// truncateOracle is time.Time.Truncate on the int64 axis, derived
// independently of it: Truncate rounds on a grid counted from year 1,
// which lies 62135596800 s before the Unix epoch — more nanoseconds than
// int64 holds, so only the offset's remainder modulo the width enters,
// through a 128-bit product. ok is false when the floor falls below the
// int64 range.
func truncateOracle(nano int64, width time.Duration) (floor int64, ok bool) {
	d := uint64(width)
	hi, lo := bits.Mul64(62135596800, 1e9)
	offset := bits.Rem64(hi, lo, d)
	r := nano % int64(width)
	if r < 0 {
		r += int64(width)
	}
	back := (uint64(r) + offset) % d // how far nano sits past its grid cell's start
	if back > uint64(nano)+1<<63 {   // nano − MinInt64, which fits 64 unsigned bits
		return 0, false
	}
	return nano - int64(back), true
}

// TestGridFloorMatchesTruncate holds gridFloor to time.Time.Truncate's
// grid — through the oracle above, on rows worked by hand, and on a
// seeded sweep — and to its clamp at the bottom of the range. The
// hand-worked rows are the trap an int64 rewrite falls into: flooring
// nano − nano mod width is the Unix-epoch grid, which agrees with
// Truncate only for widths that divide the year-1 offset (any divisor of
// a day), and already differs for a week.
func TestGridFloorMatchesTruncate(t *testing.T) {
	const (
		sec  = int64(time.Second)
		day  = 24 * time.Hour
		week = 7 * day
	)
	for _, tc := range []struct {
		name  string
		nano  int64
		width time.Duration
		want  int64
	}{
		{"epoch on a second grid", 0, time.Second, 0},
		{"just before the epoch floors away from zero", -1, time.Second, -sec},
		{"a day grid is epoch-aligned", 86399 * sec, day, 0},
		{"a day grid before the epoch", -1, day, -86400 * sec},
		{"a week grid is Monday-aligned, the epoch a Thursday", 0, week, -3 * 86400 * sec},
		{"the next Monday", 4 * 86400 * sec, week, 4 * 86400 * sec},
		{"below the range clamps", math.MinInt64 + 5, time.Hour, math.MinInt64},
		{"the cap width at the low edge of the door", minAppendTime.UnixNano(), maxTierWidth, minAppendTime.Truncate(maxTierWidth).UnixNano()},
	} {
		if got := gridFloor(tc.nano, tc.width); got != tc.want {
			t.Errorf("%s: gridFloor(%d, %v) = %d, want %d", tc.name, tc.nano, tc.width, got, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(23))
	widths := []time.Duration{1, 7, time.Microsecond, 700280112, 956358003, time.Second, 8333333333, 16666666666, time.Hour, day, week, maxTierWidth}
	for i := 0; i < 20000; i++ {
		width := widths[rng.Intn(len(widths))]
		if i%3 == 0 {
			width = time.Duration(1 + rng.Int63n(int64(maxTierWidth)))
		}
		nano := int64(rng.Uint64())
		switch i % 5 {
		case 0:
			nano = rng.Int63n(200*sec) - 100*sec // around the epoch
		case 1:
			nano = math.MinInt64 + rng.Int63n(int64(2*maxTierWidth)) // around the clamp
		}
		want, ok := truncateOracle(nano, width)
		if !ok {
			want = math.MinInt64
		}
		if got := gridFloor(nano, width); got != want {
			t.Fatalf("gridFloor(%d, %v) = %d, the year-1 grid gives %d", nano, width, got, want)
		}
		if tr := time.Unix(0, nano).Truncate(width); ok != !tr.Before(minUnixNano) || ok && tr.UnixNano() != want {
			t.Fatalf("oracle disagrees with Truncate at (%d, %v): %d vs %v", nano, width, want, tr)
		}
	}
}
