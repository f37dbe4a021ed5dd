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
// band-limited reconstruction, droop-compensated, on every run of tier
// buckets cut at or above the series' Nyquist rate (bandlimit), and
// linear interpolation everywhere else.

package api

import (
	"fmt"
	"math"
	"math/bits"
	"net/url"
	"strconv"
	"time"

	"repro/internal/dsp"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// reconstructSpec is a parsed ?reconstruct=&step= pair.
type reconstructSpec struct {
	// want reports reconstruction was requested at all.
	want bool
	// auto defers the choice to the series' stored Nyquist estimate:
	// band-limited on bucket runs and linear elsewhere when one exists,
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
}

// reconstruct resamples an un-thinned tier-stitched query result onto a
// uniform grid, moving res's bucket points to their centroids first (a
// plain query stamps them at the bucket's start, half a bucket before the
// middle of what the mean averages). nyquist is the series' stored rate
// estimate (0 = none): auto mode band-limits the grid points inside bucket
// runs (bandlimit) and interpolates linearly between the rest when an
// estimate exists, and falls back to nearest-neighbour otherwise; a
// missing step derives from the estimate at tsdb.Headroom, so the served
// grid is the one the tier buckets were cut on, or from the stored points'
// median interval.
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
	out.mode = mode.String()
	if len(res.Points) == 0 {
		return out, nil
	}
	// Points and Aggregates are both in time order, and at equal stamps a
	// bucket's point precedes a raw one (tiers are read first, the sort is
	// stable), so one pass pairs every aggregate with its point.
	aggs := res.Aggregates
	for i := 0; i < len(res.Points) && len(aggs) > 0; i++ {
		if a := aggs[0]; a.Time.Equal(res.Points[i].Time) {
			res.Points[i].Time = centroid(a)
			aggs = aggs[1:]
		}
	}
	s := series.New(res.Points) // sorts: a centroid may pass a raw point its bucket overlaps
	pts := s.Points()
	if out.step <= 0 {
		if nyquist > 0 {
			out.step = time.Duration(float64(time.Second) / (tsdb.Headroom * nyquist))
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
	u, err := s.ResampleGrid(start, out.step, n, mode)
	if err != nil {
		return out, err
	}
	if spec.auto && nyquist > 0 && bandlimit(u, res.Aggregates, nyquist) {
		out.mode = "bandlimited"
	}
	out.pts = make([]series.Point, len(u.Values))
	for i, v := range u.Values {
		out.pts[i] = series.Point{Time: u.TimeAt(i), Value: v}
	}
	return out, nil
}

// centroid is where a bucket's mean belongs: Count samples spread evenly
// over [Time, End) have their centroid (Count−1)/(2·Count) of the way
// through it.
func centroid(a tsdb.AggPoint) time.Time {
	return a.Time.Add(time.Duration(float64(a.End.Sub(a.Time)) * float64(a.Count-1) / float64(2*a.Count)))
}

const (
	// minBandRun is the fewest buckets a run needs to be band-limited.
	minBandRun = 16
	// bandUpsample is the fewest dense interpolant samples a run's
	// reconstruction computes per bucket; grid points between two are
	// interpolated linearly.
	bandUpsample = 8
)

// bandlimit replaces u's values inside every run of aggs with the run's
// band-limited interpolant (bandRun) and reports whether any run held a
// grid point. A run is a maximal sequence of at least minBandRun
// contiguous buckets sharing one count c > 1 and one width d with
// d·nyquist ≤ 1 — cut at or above the Nyquist rate, so their means
// determine the signal, which a tier-1 run of a steadily polled series
// always is and a deeper tier at fanout 4 never. Its centroids are d
// apart; "inside" is from the first centroid to the last, both included.
// Every other grid point keeps its linear value: raw points, deeper
// tiers, a tier's open partial bucket (its count differs), retune
// boundaries and tier seams (the width differs), and runs too short.
func bandlimit(u *series.Uniform, aggs []tsdb.AggPoint, nyquist float64) bool {
	done := false
	for i := 0; i < len(aggs); {
		a, j := aggs[i], i+1
		d := a.End.Sub(a.Time)
		for j < len(aggs) && aggs[j].Count == a.Count && aggs[j].End.Sub(aggs[j].Time) == d && aggs[j].Time.Sub(aggs[j-1].Time) == d {
			j++
		}
		run := aggs[i:j]
		i = j
		if len(run) < minBandRun || a.Count < 2 || d <= 0 || d.Seconds()*nyquist > 1 {
			continue
		}
		first, last := centroid(run[0]), centroid(run[len(run)-1])
		var dense []float64
		var mean float64
		for g := range u.Values {
			off := u.TimeAt(g).Sub(first)
			if off < 0 || off > last.Sub(first) {
				continue
			}
			if dense == nil {
				if dense, mean = bandRun(run); dense == nil {
					break
				}
			}
			pos := float64(off) / float64(d) * float64(len(dense)) / float64(2*len(run))
			k := min(int(pos), len(dense)-2)
			frac := pos - float64(k)
			u.Values[g] = mean + dense[k]*(1-frac) + dense[k+1]*frac
			done = true
		}
	}
	return done
}

// bandRun is §4.3 on one run of M bucket means: the run's mean is removed,
// the rest mirror-extended to 2M points (so the transform sees no
// wrap-around step at the ends), each bin divided by the c-poll boxcar's
// response H(f) = sin(πfd) / (c·sin(πfd/c)) — in band H ≥ 2/π, so the gain
// stays under π/2 and needs no regulariser — and the spectrum zero-padded
// to the power of two at or above bandUpsample·2M (a radix-2 inverse: the
// Bluestein one an arbitrary length takes is several times slower) and
// inverted. It returns the dense samples, len/2M per bucket from the first
// centroid on, and the mean to add back; nil when that mean is not finite
// (a stored NaN or ±Inf would otherwise smear over the whole run).
func bandRun(run []tsdb.AggPoint) (dense []float64, mean float64) {
	m := len(run)
	for _, a := range run {
		mean += a.Mean / float64(m)
	}
	if math.IsNaN(mean) || math.IsInf(mean, 0) {
		return nil, 0
	}
	ext := make([]float64, 2*m)
	for i, a := range run {
		ext[i], ext[2*m-1-i] = a.Mean-mean, a.Mean-mean
	}
	spec := dsp.FFTReal(ext)
	c := float64(run[0].Count)
	for k := 1; k < 2*m; k++ {
		x := math.Pi * float64(min(k, 2*m-k)) / float64(2*m) // πfd
		spec[k] /= complex(math.Sin(x)/(c*math.Sin(x/c)), 0)
	}
	dense, _ = dsp.UpsampleSpectrum(spec, 1<<bits.Len(uint(bandUpsample*2*m-1))) // longer than spec: cannot fail
	return dense, mean
}
