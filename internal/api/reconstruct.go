// Server-side reconstruction: the dashboard half of the Nyquist
// bargain. The store keeps only what the sampling theorem says it must
// (raw near the live edge, Nyquist-sized tier buckets behind it); a
// dashboard wants a dense uniform grid at whatever pixel pitch it is
// rendering. ?reconstruct=&step= resamples the tier-stitched result with
// the internal/series interpolators (linear by default when an estimate
// exists) onto the requested grid, or the store's headroom grid, instead
// of leaving the client a stair-step. It reads everything the store holds
// in the window — the point budget applies to the grid, not to what the
// grid is interpolated through — and places each bucket mean at the
// centroid of the samples it averages, not at the bucket's grid start. It
// is interpolation, not §4.3's low-pass: that is core.Reconstruct, which
// the server does not use.

package api

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"repro/internal/series"
	"repro/internal/tsdb"
)

// reconstructSpec is a parsed ?reconstruct=&step= pair.
type reconstructSpec struct {
	// want reports reconstruction was requested at all.
	want bool
	// auto defers the interpolation choice to the series' stored Nyquist
	// estimate (linear when one exists, nearest otherwise).
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
		spec.step = time.Duration(sec * float64(time.Second))
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
	// mode is the resolved interpolation policy name (auto reports what
	// it chose).
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
// estimate (0 = none): auto mode interpolates linearly when an estimate
// exists (the stored grid is then dense enough for straight lines between
// samples to stay close) and falls back to nearest-neighbour otherwise; a
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
			// Count samples spread evenly over [Time, End) have their
			// centroid (Count−1)/(2·Count) of the way through it.
			res.Points[i].Time = a.Time.Add(time.Duration(float64(a.End.Sub(a.Time)) * float64(a.Count-1) / float64(2*a.Count)))
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
	out.pts = make([]series.Point, len(u.Values))
	for i, v := range u.Values {
		out.pts[i] = series.Point{Time: u.TimeAt(i), Value: v}
	}
	return out, nil
}
