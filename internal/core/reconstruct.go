package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dsp"
	"repro/internal/series"
)

// Downsample re-samples a trace to the target rate (hertz) after low-pass
// filtering at the new Nyquist limit, returning the cheaper trace a
// monitoring system would store (§4: "store ... only the measurements that
// are re-sampled at the lower nyquist rate"). The effective rate is the
// nearest integer division of the original rate, never below targetRate.
func Downsample(u *series.Uniform, targetRate float64) (*series.Uniform, error) {
	if u == nil || len(u.Values) == 0 {
		return nil, series.ErrEmpty
	}
	fs := u.SampleRate()
	if !(targetRate > 0) {
		return nil, errors.New("core: target rate must be positive")
	}
	if targetRate >= fs {
		out := make([]float64, len(u.Values))
		copy(out, u.Values)
		return &series.Uniform{Start: u.Start, Interval: u.Interval, Values: out}, nil
	}
	return downsampleByFactor(u, int(math.Floor(fs/targetRate)))
}

// downsampleByFactor keeps every factor-th sample of u (factor < 1 keeps
// them all), low-pass filtered at the new Nyquist limit first; an
// explicit integer factor avoids floating-point drift in a rate-to-factor
// conversion.
func downsampleByFactor(u *series.Uniform, factor int) (*series.Uniform, error) {
	factor = max(factor, 1)
	vals, err := dsp.DecimateFiltered(u.Values, u.SampleRate(), factor)
	if err != nil {
		return nil, err
	}
	return &series.Uniform{Start: u.Start, Interval: time.Duration(factor) * u.Interval, Values: vals}, nil
}

// ReconstructConfig parameterizes Reconstruct.
type ReconstructConfig struct {
	// QuantStep, when positive, re-quantizes the reconstruction to the
	// sensor's grid, the paper's trick for recovering quantized readings
	// exactly (§4.3).
	QuantStep float64
}

// Reconstruct up-samples a (Nyquist-rate) trace back to targetLen samples
// via ideal band-limited interpolation — the operator-side recovery path
// whose fidelity Fig. 6 demonstrates. The result spans the same start time
// with interval scaled accordingly.
func Reconstruct(down *series.Uniform, targetLen int, cfg ReconstructConfig) (*series.Uniform, error) {
	if down == nil || len(down.Values) == 0 {
		return nil, series.ErrEmpty
	}
	if targetLen < len(down.Values) {
		return nil, fmt.Errorf("core: reconstruction target %d below trace length %d", targetLen, len(down.Values))
	}
	vals, err := dsp.UpsampleFFT(down.Values, targetLen)
	if err != nil {
		return nil, err
	}
	if cfg.QuantStep > 0 {
		q := &dsp.Quantizer{Step: cfg.QuantStep}
		vals = q.Apply(vals)
	}
	interval := time.Duration(float64(down.Interval) * float64(len(down.Values)) / float64(targetLen))
	if interval <= 0 {
		interval = 1
	}
	return &series.Uniform{Start: down.Start, Interval: interval, Values: vals}, nil
}

// RoundTrip downsamples u to targetRate and reconstructs it back to the
// original length, returning the reconstruction and the fidelity metrics
// against the original — the exact experiment of Fig. 6.
//
// Reconstruction always runs at an exact integer multiple of the
// downsampled length so that original and reconstructed samples share one
// time grid; the surplus tail (at most factor-1 samples) is trimmed.
// Among the decimation factors satisfying targetRate, RoundTrip prefers
// the largest one that divides the trace length: the decimated window then
// spans exactly the original period, which removes reconstruction leakage
// entirely for window-periodic signals (how Fig. 6 achieves L2 = 0).
func RoundTrip(u *series.Uniform, targetRate float64, cfg ReconstructConfig) (*series.Uniform, *Fidelity, error) {
	if u == nil || len(u.Values) == 0 {
		return nil, nil, series.ErrEmpty
	}
	if !(targetRate > 0) {
		return nil, nil, errors.New("core: target rate must be positive")
	}
	fs := u.SampleRate()
	maxFactor := int(math.Floor(fs / targetRate))
	if maxFactor < 1 {
		maxFactor = 1
	}
	factor := maxFactor
	for d := maxFactor; d >= 1; d-- {
		if len(u.Values)%d == 0 {
			factor = d
			break
		}
	}
	down, err := downsampleByFactor(u, factor)
	if err != nil {
		return nil, nil, err
	}
	gridFactor := 1
	if u.Interval > 0 {
		gridFactor = int(down.Interval / u.Interval)
	}
	if gridFactor < 1 {
		gridFactor = 1
	}
	rec, err := Reconstruct(down, gridFactor*len(down.Values), cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(rec.Values) < len(u.Values) {
		return nil, nil, fmt.Errorf("core: round trip produced %d samples, need %d", len(rec.Values), len(u.Values))
	}
	rec.Values = rec.Values[:len(u.Values)]
	fid, err := CompareSignals(u.Values, rec.Values)
	if err != nil {
		return nil, nil, err
	}
	fid.SamplesBefore = len(u.Values)
	fid.SamplesAfter = len(down.Values)
	return rec, fid, nil
}
