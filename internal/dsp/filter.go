package dsp

import (
	"errors"
	"math"
)

// LowPassFFT removes all frequency content strictly above cutoff hertz from
// x (sampled at sampleRate) by zeroing FFT bins and inverting, exactly the
// reconstruction low-pass described in the paper (§4.3). The returned slice
// has the same length as x. cutoff >= sampleRate/2 returns a copy unchanged.
func LowPassFFT(x []float64, sampleRate, cutoff float64) ([]float64, error) {
	if len(x) == 0 {
		return nil, ErrEmptySignal
	}
	if !(sampleRate > 0) || math.IsInf(sampleRate, 0) {
		return nil, ErrBadSampleRate
	}
	if cutoff < 0 {
		return nil, errors.New("dsp: negative cutoff frequency")
	}
	n := len(x)
	spec := FFTReal(x)
	df := sampleRate / float64(n)
	for k := 1; k <= n/2; k++ {
		f := float64(k) * df
		if f > cutoff {
			spec[k] = 0
			if k != n-k { // mirror bin, absent only for the Nyquist bin
				spec[n-k] = 0
			}
		}
	}
	return IFFTReal(spec), nil
}
