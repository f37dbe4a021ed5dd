// Package nyquist is the public API of the monitoring cost/quality toolkit
// — a reproduction of "Towards a Cost vs. Quality Sweet Spot for Monitoring
// Networks" (HotNets 2021).
//
// The toolkit treats periodically polled datacenter metrics as sampled
// time-series signals and applies the Nyquist-Shannon theorem to answer
// the question operators usually answer with gut feeling: how often does
// this metric actually need to be measured?
//
// Workflow:
//
//  1. Wrap a trace as a Series (irregular timestamps welcome) and pre-clean
//     it onto its median grid with RegularizeAuto, or build a Uniform
//     signal directly, e.g. from your TSDB export.
//  2. Estimate its Nyquist rate with an Estimator — the paper's FFT/PSD
//     method with a 99 % energy cut-off (§3.2). An ErrAliased result means
//     the trace is already under-sampled and the rate cannot be trusted.
//  3. Check that a trace survives downsampling to the Nyquist rate and
//     band-limited reconstruction (RoundTrip, §4.3), or run the
//     AdaptiveSampler loop to pick poll rates on-line (§4.2) with
//     dual-rate aliasing detection (§4.1).
//
// See the examples directory for runnable end-to-end programs and package
// fleet for the synthetic-datacenter simulation used by the paper-figure
// experiments.
package nyquist

import (
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/series"
)

// Re-exported time-series types (see package documentation for workflow).
type (
	// Point is a single timestamped observation.
	Point = series.Point
	// Series is a possibly irregular sequence of observations.
	Series = series.Series
	// Uniform is a regularly sampled signal.
	Uniform = series.Uniform
	// Interpolation selects how Regularize fills grid slots.
	Interpolation = series.Interpolation
	// Gap is a stretch of missing samples.
	Gap = series.Gap
)

// Interpolation policies for Series.Regularize.
const (
	// NearestNeighbor is the paper's pre-cleaning default (§3.2).
	NearestNeighbor = series.NearestNeighbor
	// Linear interpolates between bracketing samples.
	Linear = series.Linear
	// PreviousValue holds the last observation.
	PreviousValue = series.PreviousValue
)

// Re-exported estimation types.
type (
	// Estimator computes Nyquist rates from traces (§3.2). The zero
	// value uses the paper's defaults.
	Estimator = core.Estimator
	// EstimatorConfig parameterizes estimation.
	EstimatorConfig = core.EstimatorConfig
	// Result is a Nyquist-rate estimate.
	Result = core.Result
	// WindowedResult is one step of a moving-window scan (Fig. 7).
	WindowedResult = core.WindowedResult
)

// Re-exported aliasing-detection types (§4.1).
type (
	// DualRateDetector compares spectra sampled at two rates.
	DualRateDetector = core.DualRateDetector
	// DualRateConfig parameterizes detection.
	DualRateConfig = core.DualRateConfig
	// Verdict is a detection outcome.
	Verdict = core.Verdict
	// Sampler is a continuous signal source.
	Sampler = core.Sampler
	// SamplerFunc adapts a function to Sampler.
	SamplerFunc = core.SamplerFunc
)

// Re-exported adaptive-sampling types (§4.2).
type (
	// AdaptiveSampler drives the probe/converge/decay loop.
	AdaptiveSampler = core.AdaptiveSampler
	// AdaptiveConfig parameterizes the loop.
	AdaptiveConfig = core.AdaptiveConfig
	// Epoch is one adaptation step.
	Epoch = core.Epoch
	// RunResult is a full adaptation log.
	RunResult = core.RunResult
	// Mode is the loop state (Probing or Converged).
	Mode = core.Mode
)

// Adaptive sampler modes.
const (
	// Probing means the rate is being increased multiplicatively.
	Probing = core.Probing
	// Converged means the loop tracks an estimated Nyquist rate.
	Converged = core.Converged
)

// Re-exported streaming-estimation types (the incremental counterpart of
// Estimator: one sample ring per stream, one FFT per consumed estimate).
type (
	// StreamEstimator maintains a sliding-window spectral estimate over
	// a live stream of polls.
	StreamEstimator = core.StreamEstimator
	// StreamConfig parameterizes streaming estimation.
	StreamConfig = core.StreamConfig
	// StreamUpdate is one emission: the windowed estimate plus aliasing
	// risk and the sweet-spot poll interval. The update Push returns and
	// its Result belong to the estimator, and the next emitting Push
	// overwrites them; copy what you keep. Feed and Current return
	// independent copies.
	StreamUpdate = core.StreamUpdate
)

// NewStreamEstimator validates cfg and returns a StreamEstimator.
var NewStreamEstimator = core.NewStreamEstimator

// Detrend modes.
const (
	// DetrendMean subtracts the mean (default).
	DetrendMean = core.DetrendMean
	// DetrendLinear removes the least-squares line, robust for windows
	// shorter than the slowest component's period.
	DetrendLinear = core.DetrendLinear
	// DetrendNone analyzes raw samples.
	DetrendNone = core.DetrendNone
)

// Re-exported reconstruction and fidelity types (§4.3).
type (
	// ReconstructConfig parameterizes reconstruction.
	ReconstructConfig = core.ReconstructConfig
	// Fidelity quantifies reconstruction quality.
	Fidelity = core.Fidelity
)

// Re-exported spectral types.
type (
	// Spectrum is a one-sided power spectral density.
	Spectrum = dsp.Spectrum
	// Window tapers a signal before spectral analysis.
	Window = dsp.Window
	// Quantizer models sensor resolution.
	Quantizer = dsp.Quantizer
)

// Sentinel errors.
var (
	// ErrAliased marks traces whose Nyquist rate is unrecoverable
	// because they are already aliased (the paper's −1).
	ErrAliased = core.ErrAliased
	// ErrTooShort marks traces with too few samples.
	ErrTooShort = core.ErrTooShort
	// ErrRateRatio marks invalid dual-rate probe pairs.
	ErrRateRatio = core.ErrRateRatio
)

// DefaultEnergyCutoff is the paper's 99 % energy threshold.
const DefaultEnergyCutoff = core.DefaultEnergyCutoff

// NewSeries returns a Series over the given points (copied, sorted).
func NewSeries(points []Point) *Series { return series.New(points) }

// NewUniform constructs a uniformly sampled signal.
var NewUniform = series.NewUniform

// NewEstimator validates cfg and returns an Estimator.
var NewEstimator = core.NewEstimator

// NewDualRateDetector returns a §4.1 aliasing detector.
var NewDualRateDetector = core.NewDualRateDetector

// NewAdaptiveSampler returns a §4.2 adaptive sampling loop.
var NewAdaptiveSampler = core.NewAdaptiveSampler

// ValidateRatePair checks a dual-rate probe pair.
var ValidateRatePair = core.ValidateRatePair

// SuggestSlowRate picks a companion probe rate with a safe ratio.
var SuggestSlowRate = core.SuggestSlowRate

// RoundTrip downsamples and reconstructs, returning fidelity metrics —
// the Fig. 6 experiment.
var RoundTrip = core.RoundTrip

// CompareSignals computes fidelity metrics between two signals.
var CompareSignals = core.CompareSignals

// NewQuantizer returns a sensor-resolution model.
var NewQuantizer = dsp.NewQuantizer

// EstimateStep guesses a trace's quantization step.
var EstimateStep = dsp.EstimateStep
