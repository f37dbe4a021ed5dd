// Package series provides the time-series substrate: timestamped samples as
// produced by monitoring systems, conversion between irregular and uniform
// sampling (the paper's nearest-neighbour pre-cleaning, §3.2), gap analysis
// and summary statistics.
package series

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Point is a single observation of a monitored metric.
type Point struct {
	// Time is when the sample was taken.
	Time time.Time
	// Value is the observed reading.
	Value float64
}

// Series is a sequence of possibly irregularly spaced observations of one
// metric on one device. The zero value is an empty, ready-to-use series.
type Series struct {
	points []Point
	sorted bool
}

// Headroom multiplies an estimated Nyquist rate into the rate the
// pipeline polls, keeps and suggests: sampling exactly at the critical
// rate leaves the top component ambiguous.
const Headroom = 1.2

// Errors returned by series operations.
var (
	// ErrEmpty indicates an operation that needs at least one sample.
	ErrEmpty = errors.New("series: empty series")
	// ErrTooShort indicates an operation that needs more samples than
	// the series holds.
	ErrTooShort = errors.New("series: too few samples")
	// ErrBadInterval indicates a non-positive sampling interval.
	ErrBadInterval = errors.New("series: interval must be positive")
)

// New returns a Series over the given points. The points are copied and
// sorted by time.
func New(points []Point) *Series {
	s := &Series{points: append([]Point(nil), points...)}
	s.sort()
	return s
}

// Sorted returns a Series over points, which must be in time order,
// without copying them: the series owns the slice from then on.
func Sorted(points []Point) *Series { return &Series{points: points, sorted: true} }

// Append adds a point. Appending in time order is O(1); out-of-order points
// are accepted and trigger a re-sort on the next read.
func (s *Series) Append(p Point) {
	if n := len(s.points); n > 0 && s.points[n-1].Time.After(p.Time) {
		s.sorted = false
	}
	s.points = append(s.points, p)
}

// AppendValue adds a point with the given time and value.
func (s *Series) AppendValue(t time.Time, v float64) {
	s.Append(Point{Time: t, Value: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Points returns the samples sorted by time. The returned slice is owned by
// the series and must not be modified.
func (s *Series) Points() []Point {
	s.sort()
	return s.points
}

// Values returns the sample values in time order as a fresh slice.
func (s *Series) Values() []float64 {
	s.sort()
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = p.Value
	}
	return out
}

// Start returns the time of the earliest sample.
func (s *Series) Start() (time.Time, error) {
	if len(s.points) == 0 {
		return time.Time{}, ErrEmpty
	}
	s.sort()
	return s.points[0].Time, nil
}

// End returns the time of the latest sample.
func (s *Series) End() (time.Time, error) {
	if len(s.points) == 0 {
		return time.Time{}, ErrEmpty
	}
	s.sort()
	return s.points[len(s.points)-1].Time, nil
}

// Duration returns the time spanned by the series.
func (s *Series) Duration() (time.Duration, error) {
	if len(s.points) == 0 {
		return 0, ErrEmpty
	}
	s.sort()
	return s.points[len(s.points)-1].Time.Sub(s.points[0].Time), nil
}

// MedianInterval returns the median gap between consecutive samples. It is
// the robust estimate of the nominal polling interval of a production trace
// whose timestamps jitter.
func (s *Series) MedianInterval() (time.Duration, error) {
	if len(s.points) < 2 {
		return 0, ErrTooShort
	}
	s.sort()
	gaps := make([]time.Duration, len(s.points)-1)
	for i := 1; i < len(s.points); i++ {
		gaps[i-1] = s.points[i].Time.Sub(s.points[i-1].Time)
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2], nil
}

// SampleRate returns the nominal sampling rate in hertz implied by the
// median interval.
func (s *Series) SampleRate() (float64, error) {
	iv, err := s.MedianInterval()
	if err != nil {
		return 0, err
	}
	if iv <= 0 {
		return 0, ErrBadInterval
	}
	return 1 / iv.Seconds(), nil
}

// Window returns a new series holding the samples with from <= t < to.
func (s *Series) Window(from, to time.Time) *Series {
	s.sort()
	lo := sort.Search(len(s.points), func(i int) bool { return !s.points[i].Time.Before(from) })
	hi := sort.Search(len(s.points), func(i int) bool { return !s.points[i].Time.Before(to) })
	return New(s.points[lo:hi])
}

// WindowInclusive returns a new series holding the samples with
// from <= t <= end: the closed-interval companion to Window, for callers
// whose window end is a grid point that must itself be retained (a
// sample sitting exactly on the common end of an alignment span, for
// example). A sample even one nanosecond past end is excluded.
func (s *Series) WindowInclusive(from, end time.Time) *Series {
	s.sort()
	lo := sort.Search(len(s.points), func(i int) bool { return !s.points[i].Time.Before(from) })
	hi := sort.Search(len(s.points), func(i int) bool { return s.points[i].Time.After(end) })
	return New(s.points[lo:hi])
}

func (s *Series) sort() {
	if s.sorted && len(s.points) > 0 {
		return
	}
	// Most series arrive in order; the linear check spares them the sort.
	less := func(i, j int) bool { return s.points[i].Time.Before(s.points[j].Time) }
	if !sort.SliceIsSorted(s.points, less) {
		sort.SliceStable(s.points, less)
	}
	s.sorted = true
}

// String summarizes the series for debugging.
func (s *Series) String() string {
	if len(s.points) == 0 {
		return "series(empty)"
	}
	s.sort()
	return fmt.Sprintf("series(%d points, %s .. %s)",
		len(s.points),
		s.points[0].Time.Format(time.RFC3339),
		s.points[len(s.points)-1].Time.Format(time.RFC3339))
}

// Uniform is a regularly sampled signal: Values[i] was observed at
// Start + i*Interval. It is the form all spectral analysis operates on.
type Uniform struct {
	// Start is the time of Values[0].
	Start time.Time
	// Interval is the spacing between consecutive samples.
	Interval time.Duration
	// Values holds the samples.
	Values []float64
}

// NewUniform constructs a Uniform signal, validating the interval.
func NewUniform(start time.Time, interval time.Duration, values []float64) (*Uniform, error) {
	if interval <= 0 {
		return nil, ErrBadInterval
	}
	return &Uniform{Start: start, Interval: interval, Values: values}, nil
}

// SampleRate returns the sampling rate in hertz.
func (u *Uniform) SampleRate() float64 {
	if u.Interval <= 0 {
		return 0
	}
	return 1 / u.Interval.Seconds()
}

// Len returns the number of samples.
func (u *Uniform) Len() int { return len(u.Values) }

// TimeAt returns the timestamp of sample i.
func (u *Uniform) TimeAt(i int) time.Time {
	return u.Start.Add(time.Duration(i) * u.Interval)
}

// Duration returns the time covered from the first to the last sample.
func (u *Uniform) Duration() time.Duration {
	if len(u.Values) < 2 {
		return 0
	}
	return time.Duration(len(u.Values)-1) * u.Interval
}

// Series converts back to an explicit timestamped series.
func (u *Uniform) Series() *Series {
	pts := make([]Point, len(u.Values))
	for i, v := range u.Values {
		pts[i] = Point{Time: u.TimeAt(i), Value: v}
	}
	return New(pts)
}

// Slice returns the sub-signal covering sample indices [lo, hi).
func (u *Uniform) Slice(lo, hi int) (*Uniform, error) {
	if lo < 0 || hi > len(u.Values) || lo > hi {
		return nil, fmt.Errorf("series: slice [%d, %d) out of range 0..%d", lo, hi, len(u.Values))
	}
	return &Uniform{Start: u.TimeAt(lo), Interval: u.Interval, Values: u.Values[lo:hi]}, nil
}
