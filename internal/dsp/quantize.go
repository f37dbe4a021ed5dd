package dsp

import (
	"errors"
	"math"
)

// Quantizer rounds samples to a uniform grid, modeling the finite
// resolution of real sensors (e.g. a temperature probe that reports whole
// degrees). The paper (§4.3) notes quantization injects high-frequency
// noise that both complicates Nyquist estimation and must be re-applied to
// recover the original readings after reconstruction.
type Quantizer struct {
	// Step is the quantum; samples are rounded to the nearest multiple.
	Step float64
	// Offset shifts the grid: values are rounded to Offset + k*Step.
	Offset float64
}

// NewQuantizer returns a Quantizer with the given step. Step must be
// positive.
func NewQuantizer(step float64) (*Quantizer, error) {
	if !(step > 0) || math.IsInf(step, 0) {
		return nil, errors.New("dsp: quantizer step must be positive and finite")
	}
	return &Quantizer{Step: step}, nil
}

// Value quantizes a single sample.
func (q *Quantizer) Value(v float64) float64 {
	if q == nil || q.Step <= 0 {
		return v
	}
	return q.Offset + math.Round((v-q.Offset)/q.Step)*q.Step
}

// Apply returns a quantized copy of x.
func (q *Quantizer) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = q.Value(v)
	}
	return out
}

// EstimateStep guesses the quantization step of a trace as the smallest
// non-zero gap between distinct consecutive values. It returns 0 when the
// trace looks unquantized (fewer than minDistinct distinct deltas agree) or
// has no variation. It is a heuristic: production counters and gauges are
// quantized on fixed grids, which this recovers reliably.
func EstimateStep(x []float64) float64 {
	const eps = 1e-12
	best := math.Inf(1)
	found := false
	for i := 1; i < len(x); i++ {
		d := math.Abs(x[i] - x[i-1])
		if d > eps && d < best {
			best = d
			found = true
		}
	}
	if !found {
		return 0
	}
	// Verify most deltas are near-multiples of the candidate step;
	// otherwise the signal is not grid-quantized and we report 0.
	var checked, agree int
	for i := 1; i < len(x); i++ {
		d := math.Abs(x[i] - x[i-1])
		if d <= eps {
			continue
		}
		checked++
		ratio := d / best
		if math.Abs(ratio-math.Round(ratio)) < 0.05 {
			agree++
		}
	}
	if checked == 0 || float64(agree)/float64(checked) < 0.9 {
		return 0
	}
	return best
}
