package dsp

import "errors"

// Decimate keeps every factor-th sample of x starting at index 0. It does
// not apply an anti-alias filter; it models exactly what a monitoring
// system does when it lowers its poll rate, which is the operation whose
// safety the Nyquist analysis certifies.
func Decimate(x []float64, factor int) ([]float64, error) {
	if factor < 1 {
		return nil, errors.New("dsp: decimation factor must be >= 1")
	}
	out := make([]float64, 0, (len(x)+factor-1)/factor)
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out, nil
}

// DecimateFiltered low-pass filters x to the post-decimation Nyquist
// frequency before keeping every factor-th sample; this is the safe
// downsampler used when a trace is re-sampled for storage (paper §4).
func DecimateFiltered(x []float64, sampleRate float64, factor int) ([]float64, error) {
	if factor < 1 {
		return nil, errors.New("dsp: decimation factor must be >= 1")
	}
	if factor == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	}
	filtered, err := LowPassFFT(x, sampleRate, sampleRate/(2*float64(factor)))
	if err != nil {
		return nil, err
	}
	return Decimate(filtered, factor)
}

// UpsampleFFT stretches x to outLen samples by zero-padding its spectrum,
// i.e. ideal band-limited (sinc) interpolation. It is the reconstruction
// step used to compare a Nyquist-rate trace against the original (Fig. 6).
// outLen must be >= len(x).
func UpsampleFFT(x []float64, outLen int) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, ErrEmptySignal
	}
	if outLen < n {
		return nil, errors.New("dsp: UpsampleFFT target length below input length")
	}
	if outLen == n {
		return append([]float64(nil), x...), nil
	}
	spec := FFTReal(x)
	padded := make([]complex128, outLen)
	half := n / 2
	for k := 0; k <= half; k++ {
		padded[k] = spec[k]
	}
	for k := 1; k < n-half; k++ {
		padded[outLen-k] = spec[n-k]
	}
	if n%2 == 0 {
		// Split the Nyquist bin between its two images to keep the
		// upsampled signal real and energy-preserving.
		padded[half] = spec[half] / 2
		padded[outLen-half] = spec[half] / 2
	}
	fftInPlace(padded, true)
	out := make([]float64, outLen)
	scale := float64(outLen) / float64(n)
	for i, v := range padded {
		out[i] = real(v) * scale
	}
	return out, nil
}
