package tsdb

import (
	"math"
	"sort"
	"time"

	"repro/internal/series"
)

// QueryResult is the answer to a range query: points stitched across the
// tiers intersecting the window, oldest tier first, sorted by time.
type QueryResult struct {
	// ID echoes the queried series.
	ID string
	// Points holds the stitched samples in time order. Points taken from
	// a downsampled tier carry the bucket's grid-aligned start time and
	// its mean value; Aggregates has their full summaries.
	Points []series.Point
	// Tiers lists each tier that contributed, in read order (coarsest
	// first, raw last). Tier 0 is the raw store, tier k ≥ 1 the k-th
	// downsampled tier.
	Tiers []TierSlice
	// Aggregates holds the min/max/mean summaries of every bucket point
	// in the (unthinned) window, in time order. Empty when the window was
	// answered from the raw store alone.
	Aggregates []AggPoint
	// Thinned reports that the stitched result exceeded the requested
	// point budget and was stride-decimated down to it.
	Thinned bool
}

// TierSlice records one tier's contribution to a query.
type TierSlice struct {
	// Tier is the tier index: 0 = raw store, k ≥ 1 = k-th downsampled
	// tier.
	Tier int
	// Width is the tier's bucket width (0 for the raw store).
	Width time.Duration
	// Points is how many points the tier contributed (before thinning).
	Points int
}

// AggPoint is a bucket summary surfaced by a query.
type AggPoint struct {
	// Time is the bucket's grid-aligned start, End the end of its coverage.
	Time, End time.Time
	// Min, Max and Mean summarize the samples the bucket represents.
	Min, Max, Mean float64
	// Count is the number of raw samples represented.
	Count int64
}

// windowNanos maps a query's [from, to) onto the store's int64 axis: a
// zero bound is unbounded, a bound outside the int64-nanosecond range
// clamps to it. The append door keeps every stored instant a year inside
// both extremes, so the clamped window selects exactly what the time.Time
// one would.
func windowNanos(from, to time.Time) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if !from.IsZero() {
		lo = clampNano(from)
	}
	if !to.IsZero() {
		hi = clampNano(to)
	}
	return lo, hi
}

func clampNano(t time.Time) int64 {
	switch {
	case t.Before(minUnixNano):
		return math.MinInt64
	case t.After(maxUnixNano):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// query stitches the retained tiers over [from, to). Caller holds the
// shard lock.
func (m *memSeries) query(id string, from, to time.Time, maxPoints int) *QueryResult {
	res := &QueryResult{ID: id}
	lo, hi := windowNanos(from, to)
	// Coarsest tier first: the cascade makes deeper tiers strictly older,
	// so this emits (approximately) oldest → newest. A bucket is returned
	// when its own [start, end) coverage overlaps [from, to) — so a
	// window falling inside one bucket still gets its summary, and
	// buckets written before a retention retune keep the coverage they
	// were written with.
	for k := len(m.tiers) - 1; k >= 0; k-- {
		t := m.tiers[k]
		if !t.overlaps(lo, hi) {
			continue
		}
		before := len(res.Points)
		emit := func(b bucket) {
			if b.start >= hi || b.end <= lo {
				return
			}
			start := time.Unix(0, b.start)
			res.Points = append(res.Points, series.Point{Time: start, Value: b.mean()})
			res.Aggregates = append(res.Aggregates, AggPoint{
				Time: start, End: time.Unix(0, b.end), Min: b.min, Max: b.max, Mean: b.mean(), Count: b.count,
			})
		}
		t.each(lo, hi, emit)
		if t.curSet {
			emit(t.cur)
		}
		if n := len(res.Points) - before; n > 0 {
			res.Tiers = append(res.Tiers, TierSlice{Tier: k + 1, Width: t.width, Points: n})
		}
	}
	// Same band pruning for the raw store: a window entirely outside the
	// retained raw span (deep-history queries) skips the scan, and sealed
	// blocks outside the window are skipped without decoding.
	if oldest, newest, ok := m.raw.bounds(); ok && oldest < hi && newest >= lo {
		before := len(res.Points)
		m.raw.each(lo, hi, func(p rawPoint) {
			if p.nano >= lo && p.nano < hi {
				res.Points = append(res.Points, p.point())
			}
		})
		if n := len(res.Points) - before; n > 0 {
			res.Tiers = append(res.Tiers, TierSlice{Tier: 0, Points: n})
		}
	}
	// Single-band results (the common recent-window raw read) are already
	// ordered by construction; a linear is-sorted check keeps the hot
	// path free of the O(n log n) pass.
	if !sort.SliceIsSorted(res.Points, func(a, b int) bool { return res.Points[a].Time.Before(res.Points[b].Time) }) {
		sort.SliceStable(res.Points, func(a, b int) bool { return res.Points[a].Time.Before(res.Points[b].Time) })
	}
	if !sort.SliceIsSorted(res.Aggregates, func(a, b int) bool { return res.Aggregates[a].Time.Before(res.Aggregates[b].Time) }) {
		sort.SliceStable(res.Aggregates, func(a, b int) bool { return res.Aggregates[a].Time.Before(res.Aggregates[b].Time) })
	}
	if maxPoints > 0 && len(res.Points) > maxPoints {
		res.Points = thin(res.Points, maxPoints)
		res.Thinned = true
	}
	return res
}

// thin decimates pts to exactly maxPoints with a fractional stride
// (integer strides can undershoot the budget by up to half). Strides are
// anchored at the end so the newest sample — the one operators care
// about most — always survives.
func thin(pts []series.Point, maxPoints int) []series.Point {
	n := len(pts)
	out := pts[:0]
	for j := 0; j < maxPoints; j++ {
		out = append(out, pts[(j+1)*n/maxPoints-1])
	}
	return out
}
