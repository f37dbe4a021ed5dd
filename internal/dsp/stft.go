package dsp

import (
	"errors"
	"math"
)

// STFT parameterizes a short-time Fourier transform: the time-resolved
// spectral view behind moving-window Nyquist scans and the spectrogram
// rendering of Fig. 7-style analyses.
type STFT struct {
	// SegmentLen is the samples per frame; it must be a power of two so
	// frames run through a reusable Plan.
	SegmentLen int
	// Hop is the frame step; zero selects SegmentLen/2.
	Hop int
	// Window tapers each frame; nil selects Hann.
	Window Window
}

// Spectrogram is the STFT output: Power[t][f] is the one-sided PSD of
// frame t at frequency Freqs[f]; Times[t] is the frame start in seconds.
type Spectrogram struct {
	Times []float64
	Freqs []float64
	Power [][]float64
	// SampleRate echoes the analyzed signal's rate.
	SampleRate float64
}

// Compute runs the STFT over x sampled at sampleRate hertz.
func (s STFT) Compute(x []float64, sampleRate float64) (*Spectrogram, error) {
	if len(x) == 0 {
		return nil, ErrEmptySignal
	}
	if !(sampleRate > 0) || math.IsInf(sampleRate, 0) {
		return nil, ErrBadSampleRate
	}
	segLen := s.SegmentLen
	if segLen <= 0 {
		segLen = 256
	}
	if segLen&(segLen-1) != 0 {
		return nil, errors.New("dsp: STFT segment length must be a power of two")
	}
	if segLen > len(x) {
		return nil, errors.New("dsp: STFT segment longer than signal")
	}
	hop := s.Hop
	if hop <= 0 {
		hop = segLen / 2
	}
	w := s.Window
	if w == nil {
		w = Hann{}
	}
	plan, err := NewPlan(segLen)
	if err != nil {
		return nil, err
	}
	nBins := segLen/2 + 1
	out := &Spectrogram{SampleRate: sampleRate}
	out.Freqs = make([]float64, nBins)
	df := sampleRate / float64(segLen)
	for k := range out.Freqs {
		out.Freqs[k] = float64(k) * df
	}
	coeffs := make([]float64, segLen)
	var wp float64
	for i := range coeffs {
		coeffs[i] = w.Coeff(i, segLen)
		wp += coeffs[i] * coeffs[i]
	}
	wp /= float64(segLen)
	if wp == 0 {
		wp = 1
	}
	scratch := make([]complex128, segLen/2)
	for start := 0; start+segLen <= len(x); start += hop {
		power := make([]float64, nBins)
		if err := plan.PSDInto(power, scratch, x[start:start+segLen], 0, coeffs); err != nil {
			return nil, err
		}
		for k := range power {
			power[k] /= wp
		}
		out.Power = append(out.Power, power)
		out.Times = append(out.Times, float64(start)/sampleRate)
	}
	if len(out.Power) == 0 {
		return nil, errors.New("dsp: STFT produced no frames")
	}
	return out, nil
}
