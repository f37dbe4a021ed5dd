package series

import (
	"errors"
	"math"
	"time"
)

// Interpolation selects how Regularize fills grid slots between (or away
// from) observed samples.
type Interpolation int

const (
	// NearestNeighbor assigns each grid slot the value of the closest
	// observation in time. This is the pre-cleaning the paper applies to
	// irregular production traces (§3.2).
	NearestNeighbor Interpolation = iota
	// Linear interpolates linearly between the bracketing observations
	// and clamps to the edge values outside the observed range.
	Linear
	// PreviousValue holds the most recent observation (step/sample-and-
	// hold), matching how counters are usually rendered by dashboards.
	PreviousValue
)

// String returns the interpolation policy name.
func (ip Interpolation) String() string {
	switch ip {
	case NearestNeighbor:
		return "nearest"
	case Linear:
		return "linear"
	case PreviousValue:
		return "previous"
	default:
		return "unknown"
	}
}

// ErrBadInterpolation reports an unknown Interpolation value.
var ErrBadInterpolation = errors.New("series: unknown interpolation policy")

// maxGridSlots bounds the grid Regularize allocates. 2^24 slots, 128 MiB
// of values, hold half a year of 1-second polls (190 times the one-day
// trace the paper audits); a grid that a few stray timestamps imply (an
// hour at the 1 ns median of three samples, or 285 years at 1 s) is
// refused before it is allocated.
const maxGridSlots = 1 << 24

// ErrGridTooLarge reports a grid of more than maxGridSlots slots.
var ErrGridTooLarge = errors.New("series: regularized grid exceeds 2^24 slots")

// Regularize resamples an irregular series onto a uniform grid with the
// given interval, starting at the first observation. Every grid slot is
// filled according to the interpolation policy, so the result has no gaps
// and is safe to hand to spectral analysis.
func (s *Series) Regularize(interval time.Duration, ip Interpolation) (*Uniform, error) {
	if interval <= 0 {
		return nil, ErrBadInterval
	}
	if s.Len() == 0 {
		return nil, ErrEmpty
	}
	start := s.Points()[0].Time
	steps := s.points[len(s.points)-1].Time.Sub(start) / interval
	if steps >= maxGridSlots {
		return nil, ErrGridTooLarge
	}
	values := make([]float64, int(steps)+1)
	for i := range values {
		values[i] = math.NaN()
	}
	if err := s.ResampleGrid(values, start, interval, ip); err != nil {
		return nil, err
	}
	return &Uniform{Start: start, Interval: interval, Values: values}, nil
}

// ResampleGrid resamples the series onto an explicit uniform grid: it
// sets every NaN slot values[i] to the series at start + i·interval
// according to the interpolation policy, and leaves every other slot — one
// the caller has already computed another way — as it is, without
// computing it. Unlike Regularize, which anchors at the first observation,
// the caller owns the grid — this is the reconstruction entry point for
// serving a query's requested step, where the grid must align with the
// request window rather than with whatever sample happens to be stored
// first. Grid slots outside the observed span clamp to the edge values (no
// extrapolation).
func (s *Series) ResampleGrid(values []float64, start time.Time, interval time.Duration, ip Interpolation) error {
	if interval <= 0 {
		return ErrBadInterval
	}
	if s.Len() == 0 {
		return ErrEmpty
	}
	if len(values) == 0 {
		return ErrTooShort
	}
	if ip != NearestNeighbor && ip != Linear && ip != PreviousValue {
		return ErrBadInterpolation
	}
	// j walks forward with t, so a slot already set costs nothing.
	pts, j := s.Points(), 0
	for i := range values {
		if !math.IsNaN(values[i]) {
			continue
		}
		t := start.Add(time.Duration(i) * interval)
		switch ip {
		case NearestNeighbor:
			for j+1 < len(pts) && absDuration(pts[j+1].Time.Sub(t)) <= absDuration(pts[j].Time.Sub(t)) {
				j++
			}
		case PreviousValue:
			for j+1 < len(pts) && !pts[j+1].Time.After(t) {
				j++
			}
		default:
			for j+1 < len(pts) && pts[j+1].Time.Before(t) {
				j++
			}
			if t0, t1 := pts[j].Time, pts[min(j+1, len(pts)-1)].Time; t.After(t0) && t1.After(t0) {
				frac := t.Sub(t0).Seconds() / t1.Sub(t0).Seconds()
				values[i] = pts[j].Value*(1-frac) + pts[j+1].Value*frac
				continue
			}
		}
		values[i] = pts[j].Value
	}
	return nil
}

// RegularizeAuto regularizes onto the series' own median interval with
// nearest-neighbour interpolation — the paper's default pre-cleaning.
func (s *Series) RegularizeAuto() (*Uniform, error) {
	iv, err := s.MedianInterval()
	if err != nil {
		return nil, err
	}
	if iv <= 0 {
		return nil, ErrBadInterval
	}
	return s.Regularize(iv, NearestNeighbor)
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// Gap describes a stretch between consecutive samples that exceeds a
// threshold — missing data in a production trace.
type Gap struct {
	// From is the time of the sample before the gap.
	From time.Time
	// To is the time of the sample after the gap.
	To time.Time
	// Missing is the estimated number of samples lost, relative to the
	// nominal interval used for detection.
	Missing int
}

// Length returns the gap duration.
func (g Gap) Length() time.Duration { return g.To.Sub(g.From) }

// Gaps returns every inter-sample spacing larger than factor times the
// median interval. factor <= 1 is treated as the conventional 1.5.
func (s *Series) Gaps(factor float64) ([]Gap, error) {
	med, err := s.MedianInterval()
	if err != nil {
		return nil, err
	}
	if med <= 0 {
		return nil, ErrBadInterval
	}
	if factor <= 1 {
		factor = 1.5
	}
	limit := time.Duration(float64(med) * factor)
	var out []Gap
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		d := pts[i].Time.Sub(pts[i-1].Time)
		if d > limit {
			missing := int(math.Round(d.Seconds()/med.Seconds())) - 1
			out = append(out, Gap{From: pts[i-1].Time, To: pts[i].Time, Missing: missing})
		}
	}
	return out, nil
}
