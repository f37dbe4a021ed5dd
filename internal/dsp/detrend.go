package dsp

import "math"

// DetrendLinear returns a copy of x with the least-squares straight line
// removed. Monitoring windows often cover less than one cycle of a very
// slow component; to the FFT that residual ramp is a discontinuity whose
// leakage spreads across all bins and inflates energy-fraction cut-offs.
// Removing the best-fit line first confines the estimator to the content
// that actually varies within the window.
func DetrendLinear(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if n == 1 {
		return out // single sample: the "line" is the sample itself
	}
	// Closed-form simple linear regression on index.
	var sumY, sumXY float64
	for i, v := range x {
		sumY += v
		sumXY += float64(i) * v
	}
	fn := float64(n)
	sumX := fn * (fn - 1) / 2
	sumXX := (fn - 1) * fn * (2*fn - 1) / 6
	den := fn*sumXX - sumX*sumX
	var slope, intercept float64
	if den != 0 {
		slope = (fn*sumXY - sumX*sumY) / den
		intercept = (sumY - slope*sumX) / fn
	} else {
		intercept = sumY / fn
	}
	for i, v := range x {
		out[i] = v - (intercept + slope*float64(i))
	}
	return out
}

// MedianFilter returns x smoothed with a sliding median of the given
// window (forced odd). Medians remove impulsive noise — sensor glitches,
// counter resets — without the smearing a mean filter causes, one of the
// "standard techniques" the paper waves at for pre-filtering noisy traces
// (§4.1). Edges are handled by shrinking the window.
func MedianFilter(x []float64, window int) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	buf := make([]float64, 0, window)
	for i := range x {
		lo, hi := i-half, i+half+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(x) {
			hi = len(x)
		}
		buf = append(buf[:0], x[lo:hi]...)
		out[i] = medianOf(buf)
	}
	return out
}

// medianOf returns the median of buf, reordering it in place.
func medianOf(buf []float64) float64 {
	n := len(buf)
	if n == 0 {
		return math.NaN()
	}
	k := n / 2
	// Quickselect.
	lo, hi := 0, n-1
	for lo < hi {
		pivot := buf[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for buf[i] < pivot {
				i++
			}
			for buf[j] > pivot {
				j--
			}
			if i <= j {
				buf[i], buf[j] = buf[j], buf[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	if n%2 == 1 {
		return buf[k]
	}
	// Even length: average the two central order statistics.
	maxBelow := buf[0]
	for _, v := range buf[:k] {
		if v > maxBelow {
			maxBelow = v
		}
	}
	return (maxBelow + buf[k]) / 2
}
