package dsp

import (
	"errors"
	"math"
)

// Spectrum is a one-sided power spectral density estimate: Power[i] is the
// signal power attributed to frequency Freqs[i]. Frequencies run from 0 (DC)
// to sampleRate/2 inclusive.
type Spectrum struct {
	// Freqs holds the center frequency of each bin in hertz, ascending.
	Freqs []float64
	// Power holds the power in each bin. The sum over all bins equals the
	// mean squared value of the analyzed segment (Parseval), up to window
	// normalization.
	Power []float64
	// SampleRate is the rate of the signal the spectrum was computed from.
	SampleRate float64
}

// ErrEmptySignal is returned by spectral estimators given no samples.
var ErrEmptySignal = errors.New("dsp: empty signal")

// ErrBadSampleRate is returned when a sample rate is not a positive,
// finite number.
var ErrBadSampleRate = errors.New("dsp: sample rate must be positive and finite")

// Periodogram computes a one-sided PSD of x sampled at sampleRate hertz
// using a single windowed FFT. A nil window means rectangular. The estimate
// is normalized so that the bin powers sum to the mean squared value of the
// (unwindowed) signal; this makes energy-fraction thresholds such as the
// paper's 99 % cut-off independent of signal length and window choice.
func Periodogram(x []float64, sampleRate float64, w Window) (*Spectrum, error) {
	if len(x) == 0 {
		return nil, ErrEmptySignal
	}
	if !(sampleRate > 0) || math.IsInf(sampleRate, 0) {
		return nil, ErrBadSampleRate
	}
	n := len(x)
	spec := FFTReal(ApplyWindow(x, w))
	nBins := n/2 + 1
	power := make([]float64, nBins)
	wp := WindowPower(w, n)
	if wp == 0 {
		// Degenerate window (e.g. 2-point Hann is identically zero); the
		// spectrum is all zeros, so any finite normalization works.
		wp = 1
	}
	norm := 1 / (float64(n) * float64(n) * wp)
	for k := 0; k < nBins; k++ {
		re, im := real(spec[k]), imag(spec[k])
		p := (re*re + im*im) * norm
		// Interior bins fold in the conjugate-symmetric negative
		// frequency; DC and (for even n) the Nyquist bin do not.
		if k != 0 && !(n%2 == 0 && k == n/2) {
			p *= 2
		}
		power[k] = p
	}
	freqs := make([]float64, nBins)
	df := sampleRate / float64(n)
	for k := range freqs {
		freqs[k] = float64(k) * df
	}
	return &Spectrum{Freqs: freqs, Power: power, SampleRate: sampleRate}, nil
}

// WelchConfig parameterizes Welch's averaged-periodogram PSD estimate.
type WelchConfig struct {
	// SegmentLen is the number of samples per segment. Values < 2 select
	// a single segment covering the whole signal.
	SegmentLen int
	// Overlap is the number of samples shared by consecutive segments.
	// It must be smaller than SegmentLen; the conventional choice is
	// SegmentLen/2.
	Overlap int
	// Window tapers each segment; nil means Hann, the usual Welch choice.
	Window Window
}

// Welch computes a one-sided PSD by averaging windowed periodograms over
// overlapping segments, trading frequency resolution for variance
// reduction. It is the noise-robust alternative to Periodogram for the
// estimator's moving-window mode.
func Welch(x []float64, sampleRate float64, cfg WelchConfig) (*Spectrum, error) {
	if len(x) == 0 {
		return nil, ErrEmptySignal
	}
	if !(sampleRate > 0) || math.IsInf(sampleRate, 0) {
		return nil, ErrBadSampleRate
	}
	segLen := cfg.SegmentLen
	if segLen < 2 || segLen > len(x) {
		segLen = len(x)
	}
	overlap := cfg.Overlap
	if overlap < 0 {
		overlap = 0
	}
	if overlap >= cfg.SegmentLen && cfg.SegmentLen >= 2 {
		return nil, errors.New("dsp: welch overlap must be smaller than segment length")
	}
	if overlap >= segLen {
		// Segment was clamped to the (short) signal; shrink the overlap
		// with it so the fallback single-segment path still works.
		overlap = segLen / 2
	}
	w := cfg.Window
	if w == nil {
		w = Hann{}
	}
	step := segLen - overlap
	var acc *Spectrum
	segments := 0
	for start := 0; start+segLen <= len(x); start += step {
		ps, err := Periodogram(x[start:start+segLen], sampleRate, w)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = ps
		} else {
			for i := range acc.Power {
				acc.Power[i] += ps.Power[i]
			}
		}
		segments++
	}
	if acc == nil {
		// Signal shorter than one segment: fall back to a single
		// whole-signal periodogram.
		return Periodogram(x, sampleRate, w)
	}
	inv := 1 / float64(segments)
	for i := range acc.Power {
		acc.Power[i] *= inv
	}
	return acc, nil
}

// CumulativeCutoff returns the lowest frequency f such that bins at or
// below f contain at least fraction of the spectrum's total energy,
// together with the index of that bin. When startBin > 0 the bins below it
// (typically DC) are excluded from both numerator and denominator. If the
// total energy in scope is zero, the first in-scope frequency is returned.
func (s *Spectrum) CumulativeCutoff(fraction float64, startBin int) (freq float64, bin int) {
	if len(s.Power) == 0 {
		return 0, -1
	}
	if startBin < 0 {
		startBin = 0
	}
	if startBin >= len(s.Power) {
		startBin = len(s.Power) - 1
	}
	var total float64
	for _, p := range s.Power[startBin:] {
		total += p
	}
	if total <= 0 {
		return s.Freqs[startBin], startBin
	}
	target := fraction * total
	var cum float64
	for k := startBin; k < len(s.Power); k++ {
		cum += s.Power[k]
		if cum >= target {
			return s.Freqs[k], k
		}
	}
	last := len(s.Power) - 1
	return s.Freqs[last], last
}

// PeakFrequency returns the frequency of the strongest bin at or above
// startBin. It reports 0, -1 for an empty spectrum.
func (s *Spectrum) PeakFrequency(startBin int) (freq float64, bin int) {
	if len(s.Power) == 0 || startBin >= len(s.Power) {
		return 0, -1
	}
	if startBin < 0 {
		startBin = 0
	}
	best := startBin
	for k := startBin + 1; k < len(s.Power); k++ {
		if s.Power[k] > s.Power[best] {
			best = k
		}
	}
	return s.Freqs[best], best
}

// BinWidth returns the frequency spacing between adjacent bins, or 0 for a
// degenerate spectrum.
func (s *Spectrum) BinWidth() float64 {
	if len(s.Freqs) < 2 {
		return 0
	}
	return s.Freqs[1] - s.Freqs[0]
}
