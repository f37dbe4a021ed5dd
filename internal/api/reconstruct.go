// Server-side reconstruction: the dashboard half of the Nyquist
// bargain. The store keeps only what the sampling theorem says it must
// (raw near the live edge, Nyquist-sized tier buckets behind it); a
// dashboard wants a dense uniform grid at whatever pixel pitch it is
// rendering. ?reconstruct=&step= resamples the tier-stitched result onto
// the requested grid, or the store's headroom grid, instead of leaving the
// client a stair-step. It reads everything the store holds in the window —
// the point budget applies to the grid, not to what the grid is
// interpolated through — and places each bucket mean at the centroid of
// the samples it averages, not at the bucket's grid start. Explicit
// policies are the internal/series interpolators; auto is §4.3's
// band-limited reconstruction on every run of raw points or tier buckets
// sampled at or above the series' Nyquist rate (bandlimit), and linear
// interpolation everywhere else.

package api

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/series"
	"repro/internal/tsdb"
)

// reconstructSpec is a parsed ?reconstruct=&step= pair.
type reconstructSpec struct {
	// want reports reconstruction was requested at all.
	want bool
	// auto defers the choice to the series' stored Nyquist estimate:
	// band-limited on raw and bucket runs and linear elsewhere when one exists,
	// nearest otherwise.
	auto bool
	// mode is the interpolation policy (meaningful when !auto).
	mode series.Interpolation
	// step is the requested grid interval; 0 = derive from the series'
	// Nyquist rate (or its median interval as the fallback).
	step time.Duration
}

// parseReconstruct validates ?reconstruct= (linear|nearest|previous|auto)
// and ?step= (positive fractional seconds). step without reconstruct
// implies auto; reconstruct without step derives the grid from the
// series itself.
func parseReconstruct(q url.Values) (reconstructSpec, error) {
	var spec reconstructSpec
	switch mode := q.Get("reconstruct"); mode {
	case "":
	case "auto":
		spec.want, spec.auto = true, true
	case "linear":
		spec.want, spec.mode = true, series.Linear
	case "nearest":
		spec.want, spec.mode = true, series.NearestNeighbor
	case "previous":
		spec.want, spec.mode = true, series.PreviousValue
	default:
		return spec, fmt.Errorf("bad reconstruct: %q is not one of linear, nearest, previous, auto", mode)
	}
	if v := q.Get("step"); v != "" {
		sec, err := strconv.ParseFloat(v, 64)
		if err != nil || !(sec > 0) {
			return spec, fmt.Errorf("bad step: want positive seconds, got %q", v)
		}
		// Checked before the conversion, whose result past the int64 range
		// is platform-dependent (MinInt64 on amd64, saturated elsewhere).
		ns := sec * float64(time.Second)
		if ns >= math.MaxInt64 {
			return spec, fmt.Errorf("bad step: %q is above the longest representable step, %v", v, time.Duration(math.MaxInt64))
		}
		spec.step = time.Duration(ns)
		if spec.step <= 0 {
			return spec, fmt.Errorf("bad step: %q is below 1ns resolution", v)
		}
		if !spec.want {
			// A grid pitch with no policy means "give me the signal on this
			// grid": auto picks the policy from the stored estimate.
			spec.want, spec.auto = true, true
		}
	}
	return spec, nil
}

// reconstruction is the outcome of applying a reconstructSpec.
type reconstruction struct {
	// pts is the resampled signal on the uniform grid.
	pts []series.Point
	// mode is the resolved policy name (auto reports what it chose:
	// "bandlimited" when at least one run was, else its interpolation).
	mode string
	// step is the resolved grid interval.
	step time.Duration
	// clamped reports the requested grid exceeded the point budget and
	// the step was coarsened to fit.
	clamped bool
	// banded counts the grid points auto band-limited; fill is the
	// interpolation that computed the rest.
	banded int
	fill   series.Interpolation
}

// reconstruct resamples an un-thinned tier-stitched query result onto a
// uniform grid, in place: res's bucket points move to their centroids (a
// plain query stamps them at the bucket's start, half a bucket before the
// middle of what the mean averages; toCentroids) and res.Points is then
// read where it lies. nyquist is the series' stored rate estimate (0 =
// none): auto mode band-limits the grid points inside runs (bandlimit) and
// interpolates linearly between the rest when an estimate exists, and
// falls back to nearest-neighbour otherwise; a missing step derives from
// the estimate at series.Headroom, or from the stored points' median
// interval. It is not floored to whole poll intervals as a tier width is
// (tsdb's baseWidth), so it can differ from the tier grid.
//
// The grid is anchored at the later of `from` and the first stored
// point (a bucket's centroid, when that is a bucket) and runs through the
// last stored point — reconstruction never extrapolates past the
// observed span. A grid that would exceed budget points is coarsened to
// exactly budget (clamped reports it). An empty result reconstructs to an
// empty result.
func reconstruct(res *tsdb.QueryResult, spec reconstructSpec, nyquist float64, from time.Time, budget int) (reconstruction, error) {
	out := reconstruction{step: spec.step}
	mode := spec.mode
	if spec.auto {
		if nyquist > 0 {
			mode = series.Linear
		} else {
			mode = series.NearestNeighbor
		}
	}
	out.mode, out.fill = mode.String(), mode
	if len(res.Points) == 0 {
		return out, nil
	}
	pts := res.Points
	edge := toCentroids(pts, res.Aggregates)
	s := series.Sorted(pts)
	if out.step <= 0 {
		if nyquist > 0 {
			out.step = time.Duration(float64(time.Second) / (series.Headroom * nyquist))
		} else if iv, err := s.MedianInterval(); err == nil && iv > 0 {
			out.step = iv
		} else {
			// One stored point: any positive step yields the same single-
			// slot grid.
			out.step = time.Second
		}
		if out.step <= 0 {
			out.step = time.Nanosecond
		}
	}
	start := pts[0].Time
	if !from.IsZero() && from.After(start) {
		start = from
	}
	end := pts[len(pts)-1].Time
	span := end.Sub(start)
	if span < 0 {
		span = 0
	}
	n := int(span/out.step) + 1
	if budget > 0 && n > budget {
		// Coarsen to exactly the budget instead of failing or thinning
		// after the fact — the budget is a response-size contract.
		out.clamped = true
		n = budget
		if n > 1 {
			out.step = span / time.Duration(n-1)
		}
		if out.step <= 0 {
			out.step = time.Nanosecond
		}
	}
	// Band-limited slots first: the interpolator then computes only the
	// slots still NaN.
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.NaN()
	}
	if spec.auto && nyquist > 0 {
		if out.banded = bandlimit(vals, start, out.step, pts, res.Aggregates, edge, nyquist); out.banded > 0 {
			out.mode = "bandlimited"
		}
	}
	if err := s.ResampleGrid(vals, start, out.step, mode); err != nil {
		return out, err
	}
	out.pts = make([]series.Point, n)
	for i, v := range vals {
		out.pts[i] = series.Point{Time: start.Add(time.Duration(i) * out.step), Value: v}
	}
	return out, nil
}

// toCentroids moves every bucket point of pts to its centroid and returns
// the latest centroid (the zero Time when aggs is empty). Points and
// Aggregates are both in time order, and at equal stamps a bucket's point
// precedes a raw one (tiers are read first, the sort is stable), so one
// pass pairs every aggregate with its point. A centroid only moves later,
// and past at most the points its own bucket overlaps — the seam where one
// tier, or the raw store, takes over — so carrying each moved point
// forward, last first, restores the order a stable sort would.
func toCentroids(pts []series.Point, aggs []tsdb.AggPoint) (edge time.Time) {
	moved := -1
	for i := 0; i < len(pts) && len(aggs) > 0; i++ {
		if a := aggs[0]; a.Time.Equal(pts[i].Time) {
			pts[i].Time = centroid(a)
			if pts[i].Time.After(edge) {
				edge = pts[i].Time
			}
			aggs, moved = aggs[1:], i
		}
	}
	for i := moved; i >= 0; i-- {
		for j := i; j+1 < len(pts) && pts[j].Time.After(pts[j+1].Time); j++ {
			pts[j], pts[j+1] = pts[j+1], pts[j]
		}
	}
	return edge
}

// centroid is where a bucket's mean belongs: Count samples spread evenly
// over [Time, End) have their centroid (Count−1)/(2·Count) of the way
// through it.
func centroid(a tsdb.AggPoint) time.Time {
	return a.Time.Add(time.Duration(float64(a.End.Sub(a.Time)) * float64(a.Count-1) / float64(2*a.Count)))
}

const (
	// minRun is the fewest samples a run needs to be band-limited.
	minRun = 16
	// The kernel reads sincHalf samples either side of a grid point and
	// holds sincPhases+1 rows between two samples; the droop filter reads
	// droopHalf buckets either side, a count above maxDroopCount taking
	// its filter (within 1e-4 of theirs). Both are Kaiser-windowed.
	sincHalf, sincPhases, droopHalf, maxDroopCount, kaiserBeta = 16, 512, 16, 64, 8
)

// bandlimit sets vals[g], the grid point start + g·step, to §4.3's
// band-limited interpolant wherever it lies in a run of stored samples,
// first to last, and returns how many it set. A run is at least minRun
// samples d apart with d·nyquist ≤ 1, so they determine the signal:
//   - a tier run is a maximal sequence of contiguous buckets sharing one
//     count c > 1 and one width d, its samples their means at their
//     centroids: a tier-1 run of a steadily polled series, never a deeper
//     tier at fanout 4;
//   - a raw run is a maximal sequence of raw points evenly spaced, all
//     after edge, the latest centroid (a raw point a bucket overlaps stays
//     out); jittered polls form none.
//
// Every other grid point is left to the interpolator: deeper tiers, an
// open partial bucket (its count differs), retune and tier seams (the
// width differs), jittered or sparse raw points and short runs.
func bandlimit(vals []float64, start time.Time, step time.Duration, pts []series.Point, aggs []tsdb.AggPoint, edge time.Time, nyquist float64) (banded int) {
	for i := 0; i < len(aggs); {
		a, j := aggs[i], i+1
		d := a.End.Sub(a.Time)
		for j < len(aggs) && aggs[j].Count == a.Count && aggs[j].End.Sub(aggs[j].Time) == d && aggs[j].Time.Sub(aggs[j-1].Time) == d {
			j++
		}
		run := aggs[i:j]
		if i = j; a.Count > 1 {
			banded += sincRun(vals, start, step, centroid(a), d, len(run), a.Count, nyquist, func(k int) float64 { return run[k].Mean })
		}
	}
	raw := pts[sort.Search(len(pts), func(i int) bool { return pts[i].Time.After(edge) }):]
	for i := 0; i+1 < len(raw); {
		// Stored instants are whole nanoseconds: UnixNano is exact, and
		// cheaper than Time.Sub.
		d, j := raw[i+1].Time.UnixNano()-raw[i].Time.UnixNano(), i+1
		for j+1 < len(raw) && raw[j+1].Time.UnixNano()-raw[j].Time.UnixNano() == d {
			j++
		}
		run := raw[i : j+1]
		i = j
		banded += sincRun(vals, start, step, run[0].Time, time.Duration(d), len(run), 1, nyquist, func(k int) float64 { return run[k].Value })
	}
	return banded
}

// sincRun sets the grid slots between the first and last sample of one
// run — m samples d apart from first, sample(k) the k-th, each the mean of
// c polls — and returns how many it set. The run is mirror-extended (the
// kernel sees no step at its ends) and a bucket run's means de-drooped
// (deDroop). A grid point on a sample takes it as it is; one between
// samples weighs the 2·sincHalf around it by the Kaiser-windowed sinc at
// its phase (sincTable). A value that comes out NaN or infinite, from a
// stored one nearby, leaves its slot to the interpolator.
func sincRun(vals []float64, start time.Time, step time.Duration, first time.Time, d time.Duration, m int, c int64, nyquist float64, sample func(int) float64) (set int) {
	last := first.Add(time.Duration(m-1) * d).Sub(start)
	if m < minRun || d <= 0 || d.Seconds()*nyquist > 1 || last < 0 {
		return 0
	}
	lo, hi := 0, int(min(last/step, time.Duration(len(vals)-1)))
	if off := first.Sub(start); off > 0 {
		if lo = int(off / step); off%step != 0 {
			lo++
		}
	}
	if lo > hi {
		return 0
	}
	pad := sincHalf
	if c > 1 {
		pad += droopHalf
	}
	x := make([]float64, m+2*pad)
	for k := range x {
		x[k] = sample(mirror(k-pad, m))
	}
	if c > 1 {
		x, pad = deDroop(x, c), sincHalf
	}
	tbl := sincTable()
	for g := lo; g <= hi; g++ {
		off := start.Sub(first) + time.Duration(g)*step
		k := pad + int(off/d)
		v := x[k]
		if rem := off % d; rem != 0 {
			ph := float64(rem) / float64(d) * sincPhases
			p := min(int(ph), sincPhases-1)
			var a, b float64
			for j, s := range x[k-sincHalf+1 : k+sincHalf+1] {
				a += tbl[p][j] * s
				b += tbl[p+1][j] * s
			}
			v = a + (ph-float64(p))*(b-a)
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals[g] = v
			set++
		}
	}
	return set
}

// mirror folds an index of a run of m samples, extended by reflection
// about its half-sample ends (… x1 x0 | x0 … xm−1 | xm−1 xm−2 …), into
// [0, m).
func mirror(i, m int) int {
	if i %= 2 * m; i < 0 {
		i += 2 * m
	}
	return min(i, 2*m-1-i)
}

// sincTable holds, for each phase p/sincPhases between samples k and k+1,
// the weights of samples k−sincHalf+1 … k+sincHalf: the sinc at the
// distance to each, Kaiser-windowed and scaled to sum to 1 (unit DC gain:
// the offset a telemetry signal rides on passes exactly). Row 0 is 1 at
// sample k and 0 elsewhere. It is built on first use.
var sincTable = sync.OnceValue(func() [][2 * sincHalf]float64 {
	tbl := make([][2 * sincHalf]float64, sincPhases+1)
	for p := range tbl {
		for j := range tbl[p] {
			x := float64(j-sincHalf+1) - float64(p)/sincPhases
			tbl[p][j] = kaiser(x / sincHalf)
			if x != 0 {
				tbl[p][j] *= math.Sin(math.Pi*x) / (math.Pi * x)
			}
		}
		unitGain(tbl[p][:])
	}
	return tbl
})

// deDroop undoes the droop of a run of c-poll means, mirror-extended
// droopHalf further than the kernel reads, in x's storage, and returns
// the droopHalf·2 shorter result. A c-poll mean is the signal through the
// boxcar H(f) = sin(πfd) / (c·sin(πfd/c)), d the bucket width; in band
// H ≥ 2/π, so its inverse needs no regulariser.
func deDroop(x []float64, c int64) []float64 {
	g := droopTaps(min(c, maxDroopCount))
	for i := range x[:len(x)-2*droopHalf] {
		var s float64
		for j, t := range g {
			s += t * x[i+j]
		}
		x[i] = s
	}
	return x[:len(x)-2*droopHalf]
}

// droopFilters holds each count's droop filter once built; nothing is
// allocated for a count no query has read.
var droopFilters sync.Map // int64 → *[2*droopHalf + 1]float64

// droopTaps returns count c's droop filter, building it on first use:
// 1/H's Fourier series in band (a 1,024-point midpoint sum per tap),
// Kaiser-windowed, with unit DC gain. Two first uses at once both build
// it, to the same bits, and keep the one stored first.
func droopTaps(c int64) *[2*droopHalf + 1]float64 {
	if g, ok := droopFilters.Load(c); ok {
		return g.(*[2*droopHalf + 1]float64)
	}
	g := new([2*droopHalf + 1]float64)
	const k = 1024
	for n := range g {
		t := float64(n - droopHalf)
		for i := range k {
			v := (float64(i) + 0.5) / (2 * k) // cycles a bucket
			g[n] += float64(c) * math.Sin(math.Pi*v/float64(c)) / math.Sin(math.Pi*v) * math.Cos(2*math.Pi*v*t) / k
		}
		g[n] *= kaiser(t / (droopHalf + 1))
	}
	unitGain(g[:])
	stored, _ := droopFilters.LoadOrStore(c, g)
	return stored.(*[2*droopHalf + 1]float64)
}

// unitGain scales taps to sum to 1.
func unitGain(taps []float64) {
	var sum float64
	for _, t := range taps {
		sum += t
	}
	for i := range taps {
		taps[i] /= sum
	}
}

// kaiser is the Kaiser window at r ∈ [−1, 1] of its half-width: I0 of
// β·√(1−r²) over I0(β), I0 from its power series.
func kaiser(r float64) float64 {
	i0 := func(x float64) float64 {
		sum, term := 1.0, 1.0
		for k := 1.0; term > 1e-17*sum; k++ {
			term *= (x / (2 * k)) * (x / (2 * k))
			sum += term
		}
		return sum
	}
	return i0(kaiserBeta*math.Sqrt(max(0, 1-r*r))) / i0(kaiserBeta)
}
