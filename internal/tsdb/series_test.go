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

// TestTierWidthsAreWholePollIntervals is the tier grid's property: whatever
// appends and retunes a series has seen, its first tier's width is the
// Nyquist-derived width rounded down, by less than one interval, to a
// whole number of the series' observed poll intervals (untouched when it is
// no wider than one interval, or when no interval is known), and every
// deeper tier is the fan-out times the one above.
func TestTierWidthsAreWholePollIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rc := RetentionConfig{RawCapacity: 16, TierCapacity: 64, Tiers: 3, CompressBlock: 4}
	snapped, unsnapped, gapless := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		db := New(Config{Shards: 1, Retention: rc})
		interval := time.Duration(1+rng.Int63n(int64(90*time.Second))) / time.Duration(1+rng.Intn(1000))
		jitter := time.Duration(0)
		switch trial % 5 {
		case 1:
			jitter = interval / 4
		case 4:
			interval = 0 // every sample at one instant: no interval to observe
		}
		ts := snapStart
		for op := 0; op < 400; op++ {
			if rng.Intn(6) == 0 || op == 0 && trial%2 == 0 {
				// Widths from a thirtieth of an interval to 300 intervals,
				// and now and then one far past the maxTierWidth cap.
				rate := 1 / (1.2 * max(interval, time.Millisecond).Seconds() * math.Pow(10, -1.5+4*rng.Float64()))
				if rng.Intn(20) == 0 {
					rate = 1e-12
				}
				db.SetNyquistRate("s", rate)
			} else {
				if err := db.Append("s", series.Point{Time: ts, Value: float64(op)}); err != nil {
					t.Fatal(err)
				}
				ts = ts.Add(interval + time.Duration(rng.Int63n(int64(2*jitter+1))) - jitter)
			}
			m := db.shards[0].series["s"]
			if len(m.tiers) == 0 {
				continue
			}
			want := time.Second // what the estimate alone asks for
			if m.gap > 0 {
				want = m.gap
			}
			if w := time.Duration(float64(time.Second) / (series.Headroom * m.nyquist)); m.nyquist > 0 && w > 0 {
				want = w
			}
			want = min(want, maxTierWidth)
			got := m.tiers[0].width
			switch {
			case m.gap == 0:
				gapless++
				if got != want {
					t.Fatalf("trial %d op %d: no interval known, width %v, want %v as derived", trial, op, got, want)
				}
			case want <= m.gap:
				unsnapped++
				if got != want {
					t.Fatalf("trial %d op %d: width %v, want %v untouched (one %v interval or less)", trial, op, got, want, m.gap)
				}
			default:
				snapped++
				if got%m.gap != 0 || got < m.gap || got > want || want-got >= m.gap {
					t.Fatalf("trial %d op %d: width %v for a derived %v over %v polls: want the whole multiple just below it", trial, op, got, want, m.gap)
				}
			}
			for k := 1; k < len(m.tiers); k++ {
				above := m.tiers[k-1].width
				if w := m.tiers[k].width; w != widen(above) || w != 4*above && w != maxTierWidth {
					t.Fatalf("trial %d op %d: tier %d is %v under a %v tier, want fan-out × 4", trial, op, k+1, w, above)
				}
			}
		}
	}
	if snapped < 1000 || unsnapped < 1000 || gapless < 1000 {
		t.Fatalf("%d snapped, %d unsnapped, %d gapless states seen: the trials no longer cover both sides", snapped, unsnapped, gapless)
	}
}

// TestRegularFeedFillsBucketsExactly is what the whole-interval grid buys
// on a steady 1 Hz series retuned at random: between two changes of width
// every finalized bucket is a decimate-by-k boxcar — count exactly k —
// and every miniblock lying inside such a stretch is written regular (no
// start or width bits at all). Only a stretch's first bucket, opened on
// the new grid beside a bucket still on the old one, may hold fewer.
func TestRegularFeedFillsBucketsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rc := RetentionConfig{RawCapacity: 32, TierCapacity: 1 << 20, Tiers: 1, CompressBlock: 64}
	db := New(Config{Shards: 1, Retention: rc})
	const points = 60000
	for i := 0; i < points; i++ {
		if i%3000 == 40 {
			// Widths of 2 … 20 polls; most distinct rates share a k.
			db.SetNyquistRate("s", 1/(1.2*(2+18*rng.Float64())))
		}
		if err := db.Append("s", series.Point{Time: snapStart.Add(time.Duration(i) * time.Second), Value: float64(i % 97)}); err != nil {
			t.Fatal(err)
		}
	}
	tr := db.shards[0].series["s"].tiers[0]

	// Every finalized bucket with its block, its miniblock's index within
	// the block, and that miniblock header's regular flag.
	type entry struct {
		bucket
		block, mini int
		regular     bool
	}
	var all []entry
	for k, blk := range append(append([]bucketBlock(nil), tr.segs...), tr.stream.blk) {
		it, mini := blk.iter(), -1
		for {
			opening := it.left == 0
			if !it.next() {
				break
			}
			if opening {
				mini++
			}
			all = append(all, entry{it.bucket(), k, mini, it.regular})
		}
		if err := it.err(); err != nil {
			t.Fatal(err)
		}
	}
	width := func(j int) int64 { return all[j].end - all[j].start }
	widths, exact := map[int64]bool{}, 0
	for j := range all {
		if width(j)%int64(time.Second) != 0 {
			t.Fatalf("bucket %d is %v wide on a 1 s feed", j, time.Duration(width(j)))
		}
		widths[width(j)] = true
		if j > 0 && width(j-1) == width(j) {
			if all[j].count != width(j)/int64(time.Second) {
				t.Fatalf("bucket %d [%d, %d) holds %d samples inside a stretch of %v buckets", j, all[j].start, all[j].end, all[j].count, time.Duration(width(j)))
			}
			exact++
		}
	}
	// steady(j): bucket j continues the grid of the two before it — what
	// the start and width chains need to code it in no bits.
	steady := func(j int) bool {
		return j >= 2 && width(j-1) == width(j) && width(j-2) == width(j) &&
			all[j].start-all[j-1].start == width(j) && all[j-1].start-all[j-2].start == width(j)
	}
	regularMinis, steadyMinis := 0, 0
	for j := 0; j < len(all); {
		end, allSteady := j, true
		for ; end < len(all) && all[end].block == all[j].block && all[end].mini == all[j].mini; end++ {
			allSteady = allSteady && steady(end)
		}
		// A block's first miniblock opens its chains and is never regular.
		if all[j].mini > 0 && allSteady {
			steadyMinis++
			if !all[j].regular {
				t.Fatalf("miniblock at bucket %d (%d entries, %v wide) lies inside a steady stretch and is not regular", j, end-j, time.Duration(width(j)))
			}
		}
		if all[j].regular {
			regularMinis++
		}
		j = end
	}
	if len(widths) < 6 || exact < len(all)*9/10 || steadyMinis < 200 {
		t.Fatalf("%d widths, %d of %d buckets inside a stretch, %d steady miniblocks: the feed no longer exercises the property", len(widths), exact, len(all), steadyMinis)
	}
	t.Logf("%d buckets, %d widths, %d inside a stretch (all exact), %d miniblocks regular (%d had to be)", len(all), len(widths), exact, regularMinis, steadyMinis)
}
