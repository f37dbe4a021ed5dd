package series

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of values (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Detrend returns a copy of values with the mean removed. Removing DC is a
// prerequisite for energy-fraction Nyquist estimation (DESIGN.md choice 2).
func Detrend(values []float64) []float64 {
	m := Mean(values)
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v - m
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of values using linear
// interpolation between order statistics. It returns NaN for empty input
// and clamps p to [0, 100].
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FiveNumber is a box-plot summary: minimum, lower quartile, median, upper
// quartile and maximum.
type FiveNumber struct {
	Min, Q1, Median, Q3, Max float64
}

// BoxStats computes the five-number summary used by the Fig. 5 driver.
func BoxStats(values []float64) FiveNumber {
	return FiveNumber{
		Min:    Percentile(values, 0),
		Q1:     Percentile(values, 25),
		Median: Percentile(values, 50),
		Q3:     Percentile(values, 75),
		Max:    Percentile(values, 100),
	}
}

// Increment is a counter's increase from reading prev to reading cur: cur
// − prev, or cur when the counter fell. A fall is a reset, read as
// Prometheus rate() reads one: the counter restarted from zero and has
// counted cur since. Monotone counters are differenced into rates before
// spectral analysis, offline (dcsim.RateFromCounter) and on ingest
// (monitor.IngestEstimator) alike, through this one rule.
func Increment(prev, cur float64) float64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}
