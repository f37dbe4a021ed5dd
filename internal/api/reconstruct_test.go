package api

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/series"
	"repro/internal/tsdb"
)

// bucketSeg is a stretch of contiguous tier buckets in a synthetic
// stitched result: n buckets of the given width, each the mean of count
// 1 s polls of the tone from its start (a count below width/1 s is an
// open partial bucket).
type bucketSeg struct {
	n     int
	width time.Duration
	count int64
}

// stitchedTone is the query result a store holding the tone would return:
// segs back to back from apiStart, then raw 1 s polls from the poll after
// the last bucket's.
func stitchedTone(segs []bucketSeg, raw int) *tsdb.QueryResult {
	res := &tsdb.QueryResult{}
	at, next := apiStart, apiStart
	for _, s := range segs {
		for i := 0; i < s.n; i++ {
			var sum float64
			for j := int64(0); j < s.count; j++ {
				sum += toneAt(at.Sub(apiStart).Seconds() + float64(j))
			}
			mean := sum / float64(s.count)
			res.Points = append(res.Points, series.Point{Time: at, Value: mean})
			res.Aggregates = append(res.Aggregates, tsdb.AggPoint{Time: at, End: at.Add(s.width), Min: mean, Max: mean, Mean: mean, Count: s.count})
			at, next = at.Add(s.width), at.Add(time.Duration(s.count)*time.Second)
		}
	}
	for i := 0; i < raw; i++ {
		when := next.Add(time.Duration(i) * time.Second)
		res.Points = append(res.Points, series.Point{Time: when, Value: toneAt(when.Sub(apiStart).Seconds())})
	}
	return res
}

// bandSpans is the oracle for which grid points auto band-limits in
// stitchedTone(segs, raw): from the first to the last centroid of every
// segment run — neighbouring segments with one width and count merged — of
// at least 16 buckets with count > 1 and width·nyquist ≤ 1, and from the
// first raw poll later than every centroid to the last, when at least 16
// are (1 s polls: every nyquist here is at most 1 Hz).
func bandSpans(segs []bucketSeg, raw int, nyquist float64) (spans [][2]time.Time) {
	at, next := apiStart, apiStart
	var edge time.Time
	for i := 0; i < len(segs); {
		s, n, start := segs[i], 0, at
		for ; i < len(segs) && segs[i].width == s.width && segs[i].count == s.count; i++ {
			n += segs[i].n
			at = at.Add(time.Duration(segs[i].n) * s.width)
		}
		off := time.Duration(float64(s.width) * float64(s.count-1) / float64(2*s.count))
		if n > 0 {
			edge = at.Add(off - s.width)
			next = at.Add(time.Duration(s.count)*time.Second - s.width)
		}
		if n >= 16 && s.count > 1 && s.width.Seconds()*nyquist <= 1 {
			spans = append(spans, [2]time.Time{start.Add(off), at.Add(off - s.width)})
		}
	}
	first := 0
	for first < raw && !next.Add(time.Duration(first)*time.Second).After(edge) {
		first++
	}
	if raw-first >= 16 {
		spans = append(spans, [2]time.Time{next.Add(time.Duration(first) * time.Second), next.Add(time.Duration(raw-1) * time.Second)})
	}
	return spans
}

// inSpans reports whether t falls in one of spans, ends included.
func inSpans(spans [][2]time.Time, t time.Time) bool {
	for _, s := range spans {
		if !t.Before(s[0]) && !t.After(s[1]) {
			return true
		}
	}
	return false
}

// reconstructBoth reconstructs one fixture twice on the same grid: with
// explicit linear and with auto.
func reconstructBoth(t testing.TB, segs []bucketSeg, raw int, nyquist float64, step time.Duration, budget int) (linear, auto reconstruction) {
	t.Helper()
	linear, err := reconstruct(stitchedTone(segs, raw), reconstructSpec{want: true, mode: series.Linear, step: step}, nyquist, time.Time{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	auto, err = reconstruct(stitchedTone(segs, raw), reconstructSpec{want: true, auto: true, step: step}, nyquist, time.Time{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto.pts) != len(linear.pts) || auto.step != linear.step {
		t.Fatalf("auto grid %d × %v, linear %d × %v: want one grid", len(auto.pts), auto.step, len(linear.pts), linear.step)
	}
	return linear, auto
}

// TestBandRunSplitter: auto band-limits exactly the grid points between
// the first and last sample of each qualifying run — every case's raw
// tail is one — and leaves every other point — a retune seam, a tier
// seam, the open partial bucket's stretch, a run one bucket short, a tier
// cut below the Nyquist rate — on its linear value, bit for bit.
func TestBandRunSplitter(t *testing.T) {
	const nyq = 2 / tonePeriod // 0.05 Hz: a 16 s bucket is cut at 1.25× it
	tier1 := bucketSeg{24, 16 * time.Second, 16}
	retuned := bucketSeg{24, 12 * time.Second, 12}
	cases := []struct {
		name    string
		segs    []bucketSeg
		nyquist float64
		runs    int
	}{
		{"retune mid-tier", []bucketSeg{tier1, retuned}, nyq, 3},
		{"tier-2 to tier-1 seam", []bucketSeg{{20, 64 * time.Second, 64}, tier1}, nyq, 2},
		// The partial bucket's centroid passes the first two raw polls,
		// which stay outside the raw run.
		{"open partial bucket", []bucketSeg{tier1, {1, 16 * time.Second, 5}}, nyq, 2},
		{"15-bucket run", []bucketSeg{{15, 16 * time.Second, 16}, retuned}, nyq, 2},
		// At 0.07 Hz the 16 s tier is cut at 0.89× the Nyquist rate, the
		// 12 s one still at 1.19×.
		{"width·nyquist above 1", []bucketSeg{tier1, retuned}, 0.07, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spans := bandSpans(c.segs, 64, c.nyquist)
			if len(spans) != c.runs {
				t.Fatalf("oracle finds %d runs, the case means %d", len(spans), c.runs)
			}
			linear, auto := reconstructBoth(t, c.segs, 64, c.nyquist, 4*time.Second, 0)
			banded := 0
			for i, p := range auto.pts {
				inside := inSpans(spans, p.Time)
				if moved := p.Value != linear.pts[i].Value; moved != inside {
					t.Fatalf("grid point %d at %v: inside a run %v, band-limited %v (auto %v, linear %v)", i, p.Time.Sub(apiStart), inside, moved, p.Value, linear.pts[i].Value)
				}
				if inside {
					banded++
				}
			}
			if want := "bandlimited"; auto.mode != want || banded == 0 {
				t.Fatalf("auto reconstructed %q with %d band-limited points, want %q", auto.mode, banded, want)
			}
		})
	}
	// No run at all — 15 buckets, 15 raw polls: auto stays linear and says so.
	if _, auto := reconstructBoth(t, []bucketSeg{{15, 16 * time.Second, 16}}, 15, nyq, 4*time.Second, 0); auto.mode != "linear" {
		t.Fatalf("auto with no run reconstructed %q, want linear", auto.mode)
	}
}

// FuzzReconstruct drives auto and linear over generated stitched results —
// a tier run, a retune to another width, an open partial bucket, a raw
// tail, the Nyquist rate, the step and the budget — and checks that every
// grid point outside a band-limited run is linear's bit for bit, every
// value is finite, the grid stays within the budget, and it never leaves
// the span from the first stored point to the last.
func FuzzReconstruct(f *testing.F) {
	f.Add(uint16(24), uint8(16), uint16(24), uint8(12), uint8(5), uint16(64), uint16(50), uint32(4000), uint16(4096))
	f.Add(uint16(20), uint8(64), uint16(24), uint8(16), uint8(0), uint16(0), uint16(50), uint32(1), uint16(96))
	f.Add(uint16(15), uint8(16), uint16(0), uint8(16), uint8(3), uint16(300), uint16(70), uint32(999), uint16(7))
	f.Add(uint16(200), uint8(2), uint16(200), uint8(2), uint8(1), uint16(1), uint16(400), uint32(250), uint16(1))
	f.Add(uint16(0), uint8(0), uint16(0), uint8(0), uint8(0), uint16(500), uint16(300), uint32(700), uint16(4096))
	f.Fuzz(func(t *testing.T, n1 uint16, c1 uint8, n2 uint16, c2 uint8, partial uint8, raw uint16, nyqMilliHz uint16, stepMs uint32, budget uint16) {
		// Counts 1..40 at 1 s polls (width = count seconds), up to 300
		// buckets a segment, a partial bucket short of the second count.
		seg := func(n uint16, c uint8) bucketSeg {
			count := 1 + int64(c%40)
			return bucketSeg{int(n % 300), time.Duration(count) * time.Second, count}
		}
		segs := []bucketSeg{seg(n1, c1), seg(n2, c2)}
		if p := int64(partial) % segs[1].count; p > 0 {
			segs = append(segs, bucketSeg{1, segs[1].width, p})
		}
		nRaw := int(raw % 600)
		if segs[0].n+segs[1].n+len(segs)-2+nRaw == 0 {
			return
		}
		nyq := float64(1+nyqMilliHz%1000) / 1000
		step := time.Duration(1+stepMs%100000) * time.Millisecond
		lim := 1 + int(budget%4096)
		linear, auto := reconstructBoth(t, segs, nRaw, nyq, step, lim)

		res := stitchedTone(segs, nRaw)
		var stored []time.Time // centroids, then the raw tail
		for _, a := range res.Aggregates {
			stored = append(stored, centroid(a))
		}
		for _, p := range res.Points[len(res.Aggregates):] {
			stored = append(stored, p.Time)
		}
		slices.SortFunc(stored, time.Time.Compare)
		first, last := stored[0], stored[len(stored)-1]
		if len(auto.pts) > lim {
			t.Fatalf("grid of %d points over a %d budget", len(auto.pts), lim)
		}
		spans := bandSpans(segs, nRaw, nyq)
		for i, p := range auto.pts {
			if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
				t.Fatalf("grid point %d at %v is %v", i, p.Time.Sub(apiStart), p.Value)
			}
			if p.Time.Before(first) || p.Time.After(last) {
				t.Fatalf("grid point %d at %v outside the stored span [%v, %v]", i, p.Time.Sub(apiStart), first.Sub(apiStart), last.Sub(apiStart))
			}
			if !inSpans(spans, p.Time) && math.Float64bits(p.Value) != math.Float64bits(linear.pts[i].Value) {
				t.Fatalf("grid point %d at %v outside every run: auto %v, linear %v", i, p.Time.Sub(apiStart), p.Value, linear.pts[i].Value)
			}
		}
	})
}

// TestReconstructOnSample: a grid point that lands on a sample of a raw run
// is that sample, bit for bit — the kernel's phase-0 row is exact — and
// the points between are band-limited.
func TestReconstructOnSample(t *testing.T) {
	res := rawRun(256, time.Second)
	stored := append([]series.Point(nil), res.Points...)
	rec, err := reconstruct(res, reconstructSpec{want: true, auto: true, step: 3 * time.Second}, 2/tonePeriod, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.mode != "bandlimited" || rec.banded != len(rec.pts) {
		t.Fatalf("auto reconstructed %q with %d of %d points band-limited, want all", rec.mode, rec.banded, len(rec.pts))
	}
	for i, p := range rec.pts {
		if want := stored[3*i]; !p.Time.Equal(want.Time) || math.Float64bits(p.Value) != math.Float64bits(want.Value) {
			t.Fatalf("grid point %d: %v at %v, want the stored %v at %v", i, p.Value, p.Time, want.Value, want.Time)
		}
	}
	half, err := reconstruct(rawRun(256, time.Second), reconstructSpec{want: true, auto: true, step: 1500 * time.Millisecond}, 2/tonePeriod, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(half.pts); i += 2 {
		p := half.pts[i]
		if want := toneAt(p.Time.Sub(apiStart).Seconds()); math.Abs(p.Value-want) > 0.01 {
			t.Fatalf("grid point %d at %v between samples: %v, want the tone's %v within the 0.01 its two-decimal samples allow", i, p.Time.Sub(apiStart), p.Value, want)
		}
	}
}

// rawRun is a raw-only query result: n polls of the tone, gap apart from
// apiStart, at two decimals like the benchmark's telemetry.
func rawRun(n int, gap time.Duration) *tsdb.QueryResult {
	res := &tsdb.QueryResult{}
	for i := 0; i < n; i++ {
		at := apiStart.Add(time.Duration(i) * gap)
		res.Points = append(res.Points, series.Point{Time: at, Value: math.Round(100*toneAt(at.Sub(apiStart).Seconds())) / 100})
	}
	return res
}

// BenchmarkReconstructTier is the cost of serving one series of the shape
// the bench's steady_bulk checkpoint reconstructs: a 1,024-bucket tier-1
// run of 8-poll means and a 4,096-point raw tail, on the default grid
// (8 s, 1,536 points) under a 4,096-point budget. auto band-limits the run
// and the raw tail (the run's droop filter, then the kernel at each grid
// point); linear is what the same call cost before it did.
func BenchmarkReconstructTier(b *testing.B) {
	const nyq = 1 / (series.Headroom * 8) // the rate an 8 s tier-1 width is cut for
	tmpl := stitchedTone([]bucketSeg{{1024, 8 * time.Second, 8}}, 4096)
	for _, bc := range []struct {
		name string
		spec reconstructSpec
	}{
		{"auto", reconstructSpec{want: true, auto: true}},
		{"linear", reconstructSpec{want: true, mode: series.Linear}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			res := *tmpl
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// reconstruct moves the bucket points to their centroids in
				// place; each pass starts from the stored stamps.
				res.Points = append(res.Points[:0:0], tmpl.Points...)
				if _, err := reconstruct(&res, bc.spec, nyq, time.Time{}, 4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReconstructMatch is the reconstruction half of one
// dashboard_hot query: 16 raw-only members of 2,048 one-second polls, each
// onto the 256-point grid its share of a 4,096-point budget allows. auto
// band-limits every member's one raw run; linear is what the same call
// cost before it did.
func BenchmarkReconstructMatch(b *testing.B) {
	const nyq = 0.25 // a 3.3 s default step: 615 points, clamped to 256
	members := make([]*tsdb.QueryResult, 16)
	for i := range members {
		members[i] = rawRun(2048, time.Second)
	}
	for _, bc := range []struct {
		name string
		spec reconstructSpec
	}{
		{"auto", reconstructSpec{want: true, auto: true}},
		{"linear", reconstructSpec{want: true, mode: series.Linear}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A raw-only result has no bucket point to move, so every
				// pass reads the members as stored.
				for _, res := range members {
					if _, err := reconstruct(res, bc.spec, nyq, time.Time{}, 256); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
