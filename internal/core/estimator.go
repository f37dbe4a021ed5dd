// Package core implements the paper's primary contribution: estimating the
// Nyquist rate of monitored signals from their traces (§3.2), detecting
// aliasing with dual-rate sampling (§4.1), adapting the measurement rate
// on-line (§4.2), and reconstructing downsampled signals (§4.3).
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dsp"
	"repro/internal/series"
)

// DefaultEnergyCutoff is the fraction of total signal energy that must be
// captured below the reported cut-off frequency. The paper uses 99 % as a
// workaround for measurement noise (§3.2).
const DefaultEnergyCutoff = 0.99

// ErrAliased is reported when the estimator needs every FFT bin to reach
// the energy cut-off, the paper's signature of an already-aliased trace
// (recorded as −1 in the paper; here a typed error so callers cannot
// mistake it for a rate).
var ErrAliased = errors.New("core: trace appears aliased; Nyquist rate not recoverable")

// MinSamples is the fewest samples a trace, or a stream's window, may hold
// for a meaningful spectral estimate.
const MinSamples = 16

// ErrTooShort is reported for traces with fewer than MinSamples samples.
var ErrTooShort = errors.New("core: trace too short for Nyquist estimation")

// DetrendMode selects how the estimator removes the slow offset a
// monitoring window almost always rides on before the FFT.
type DetrendMode int

const (
	// DetrendMean subtracts the mean (the default; equivalent to
	// excluding the DC bin, which a constant offset would otherwise
	// dominate).
	DetrendMean DetrendMode = iota
	// DetrendLinear removes the least-squares line. Windows that cover
	// less than one cycle of a very slow component see it as a ramp
	// whose leakage spreads across all bins; removing the line confines
	// the estimate to content that varies within the window.
	DetrendLinear
	// DetrendNone analyzes the raw samples.
	DetrendNone
)

// String returns the mode name.
func (d DetrendMode) String() string {
	switch d {
	case DetrendMean:
		return "mean"
	case DetrendLinear:
		return "linear"
	case DetrendNone:
		return "none"
	default:
		return "unknown"
	}
}

// EstimatorConfig parameterizes Nyquist-rate estimation.
type EstimatorConfig struct {
	// EnergyCutoff is the energy fraction threshold. Zero selects
	// DefaultEnergyCutoff. Values must lie in (0, 1].
	EnergyCutoff float64
	// IncludeDC counts the DC bin toward the energy budget. The default
	// (false) removes the mean first: counters and gauges carry large
	// constant offsets that would otherwise satisfy any cut-off at bin 0.
	IncludeDC bool
	// Detrend selects the pre-FFT trend removal (ignored when IncludeDC
	// is set). The zero value is DetrendMean, the paper's implicit
	// behaviour; DetrendLinear is the robust choice for windows shorter
	// than the slowest component's period.
	Detrend DetrendMode
	// Window tapers the trace before the FFT; nil means rectangular,
	// matching the paper's plain-FFT method.
	Window dsp.Window
	// Welch, when true, uses Welch's averaged periodogram with eight
	// half-overlapping segments instead of a single FFT. More robust to
	// noise at the price of frequency resolution.
	Welch bool
}

// welchSegments is the number of half-overlapping segments a Welch
// estimate averages.
const welchSegments = 8

// aliasedGuard is the fraction of the analyzed band the cut-off may reach
// before a trace is declared aliased, in the batch and the streaming
// estimator alike. The paper's criterion is "all bins needed"; in practice
// a near-flat spectrum (noise or folded content) parks the cut-off within
// a hair of the top bin, so any cut-off above aliasedGuard * sampleRate/2
// is treated as the aliased signature.
const aliasedGuard = 0.95

func (c EstimatorConfig) withDefaults() (EstimatorConfig, error) {
	if c.EnergyCutoff == 0 {
		c.EnergyCutoff = DefaultEnergyCutoff
	}
	if !(c.EnergyCutoff > 0 && c.EnergyCutoff <= 1) { // refuses NaN too
		return c, fmt.Errorf("core: energy cutoff %v outside (0, 1]", c.EnergyCutoff)
	}
	return c, nil
}

// Estimator computes Nyquist rates from traces. The zero value uses the
// paper's defaults; construct with NewEstimator to validate a custom
// configuration once.
type Estimator struct {
	cfg EstimatorConfig
}

// NewEstimator validates cfg and returns an Estimator.
func NewEstimator(cfg EstimatorConfig) (*Estimator, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Estimator{cfg: c}, nil
}

// Result reports a Nyquist-rate estimate for one trace.
type Result struct {
	// NyquistRate is twice the energy cut-off frequency, in hertz: the
	// minimum sampling rate that captures the configured energy fraction.
	// Zero when Aliased.
	NyquistRate float64
	// CutoffFreq is the frequency below which the energy fraction is
	// reached, in hertz.
	CutoffFreq float64
	// SampleRate is the rate of the analyzed trace, in hertz.
	SampleRate float64
	// Aliased is true when every FFT bin was needed to reach the energy
	// cut-off — the paper's already-aliased signature (§3.2 step b).
	Aliased bool
	// ReductionRatio is SampleRate / NyquistRate: how much the current
	// rate exceeds the required one (>1 means over-sampling). Zero when
	// Aliased.
	ReductionRatio float64
	// EnergyCaptured is the fraction of in-scope energy at or below
	// CutoffFreq.
	EnergyCaptured float64
	// Spectrum is the PSD the decision was made on.
	Spectrum *dsp.Spectrum
}

// Oversampled reports whether the trace was sampled above its estimated
// Nyquist rate.
func (r *Result) Oversampled() bool {
	return !r.Aliased && r.SampleRate > r.NyquistRate
}

// Estimate analyzes a uniformly sampled trace. When the trace appears
// aliased it returns the populated Result together with ErrAliased.
func (e *Estimator) Estimate(u *series.Uniform) (*Result, error) {
	cfg, err := e.cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if u == nil || len(u.Values) < MinSamples {
		return nil, ErrTooShort
	}
	fs := u.SampleRate()
	if !(fs > 0) {
		return nil, series.ErrBadInterval
	}
	values := u.Values
	if !cfg.IncludeDC {
		switch cfg.Detrend {
		case DetrendLinear:
			values = dsp.DetrendLinear(values)
		case DetrendNone:
			// Keep raw samples; only the DC bin is skipped below.
		default:
			values = series.Detrend(values)
		}
	}
	var spec *dsp.Spectrum
	if cfg.Welch {
		segLen := len(values) * 2 / (welchSegments + 1)
		spec, err = dsp.Welch(values, fs, dsp.WelchConfig{SegmentLen: segLen, Overlap: segLen / 2, Window: cfg.Window})
	} else {
		spec, err = dsp.Periodogram(values, fs, cfg.Window)
	}
	if err != nil {
		return nil, err
	}
	startBin := 1
	if cfg.IncludeDC {
		startBin = 0
	}
	cutFreq, bin := spec.CumulativeCutoff(cfg.EnergyCutoff, startBin)
	res := &Result{
		CutoffFreq:     cutFreq,
		SampleRate:     fs,
		Spectrum:       spec,
		EnergyCaptured: capturedFraction(spec, startBin, bin),
	}
	if bin >= len(spec.Power)-1 || cutFreq >= aliasedGuard*fs/2 {
		// (Nearly) all bins were needed: the paper concludes the signal
		// is probably already aliased and records -1.
		res.Aliased = true
		return res, ErrAliased
	}
	res.NyquistRate = 2 * cutFreq
	if res.NyquistRate > 0 {
		res.ReductionRatio = fs / res.NyquistRate
	} else {
		// Energy concentrated at (or below) the first analyzed bin: the
		// signal is effectively constant at this resolution. Report the
		// finest measurable rate instead of zero so ratios stay finite.
		res.NyquistRate = 2 * spec.BinWidth()
		if res.NyquistRate > 0 {
			res.ReductionRatio = fs / res.NyquistRate
		}
	}
	return res, nil
}

// EstimateSeries regularizes an irregular trace with nearest-neighbour
// interpolation at its median interval (the paper's pre-cleaning) and then
// estimates its Nyquist rate.
func (e *Estimator) EstimateSeries(s *series.Series) (*Result, error) {
	u, err := s.RegularizeAuto()
	if err != nil {
		return nil, err
	}
	return e.Estimate(u)
}

func capturedFraction(spec *dsp.Spectrum, startBin, bin int) float64 {
	if bin < 0 || startBin < 0 || startBin >= len(spec.Power) {
		return 0
	}
	var total, cum float64
	for k := startBin; k < len(spec.Power); k++ {
		total += spec.Power[k]
		if k <= bin {
			cum += spec.Power[k]
		}
	}
	if total <= 0 {
		return 1
	}
	return cum / total
}

// WindowedResult is one step of a moving-window Nyquist scan (Fig. 7).
type WindowedResult struct {
	// WindowStart is the beginning of the analysis window (the paper's
	// Fig. 7 timestamps mark the beginning of the moving window).
	WindowStart time.Time
	// Result is the estimate over that window; nil when the window was
	// too short.
	Result *Result
	// Err is ErrAliased or a shortness error for degenerate windows.
	Err error
}

// MovingWindow runs the estimator over sliding windows of the given length
// and step, reproducing the paper's Fig. 7 methodology (6 h window, 5 min
// step for the temperature signal).
func (e *Estimator) MovingWindow(u *series.Uniform, window, step time.Duration) ([]WindowedResult, error) {
	if window <= 0 || step <= 0 {
		return nil, series.ErrBadInterval
	}
	if u.Interval <= 0 {
		return nil, series.ErrBadInterval
	}
	winSamples := int(window / u.Interval)
	stepSamples := int(step / u.Interval)
	if stepSamples < 1 {
		stepSamples = 1
	}
	if winSamples < 2 {
		return nil, ErrTooShort
	}
	var out []WindowedResult
	for lo := 0; lo+winSamples <= len(u.Values); lo += stepSamples {
		sub, err := u.Slice(lo, lo+winSamples)
		if err != nil {
			return nil, err
		}
		res, err := e.Estimate(sub)
		out = append(out, WindowedResult{WindowStart: u.TimeAt(lo), Result: res, Err: err})
	}
	if len(out) == 0 {
		return nil, ErrTooShort
	}
	return out, nil
}
