package core

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Mode is the state of the adaptive sampling loop.
type Mode int

const (
	// Probing means aliasing was detected (or nothing is known yet) and
	// the rate is being increased multiplicatively (§4.2: "While aliasing
	// persists, we remain in probe mode").
	Probing Mode = iota
	// Converged means the current rate passed the dual-rate check and the
	// estimator produced a Nyquist rate the poller now tracks.
	Converged
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Probing:
		return "probing"
	case Converged:
		return "converged"
	default:
		return "unknown"
	}
}

// AdaptiveConfig parameterizes the dynamic sampling method of §4.2.
type AdaptiveConfig struct {
	// InitialRate is the first poll rate tried, in hertz. Required.
	InitialRate float64
	// MaxRate bounds the adapted rate from above, and MaxRate/1e6 from
	// below. Required.
	MaxRate float64
	// Headroom multiplies the estimated Nyquist rate when setting the
	// poll rate, keeping margin for first-of-their-kind events (§4.2
	// last paragraph). Zero selects 2.
	Headroom float64
	// ProbeFactor is the multiplicative rate increase while aliasing
	// persists. Zero selects 2.
	ProbeFactor float64
	// DecayFactor moves the rate toward a lower measured requirement:
	// newRate = old*DecayFactor + target*(1-DecayFactor). Zero selects
	// 0.5; 1 disables decreases.
	DecayFactor float64
	// DecreaseAfter is how many consecutive windows must measure a lower
	// Nyquist rate before the poll rate is allowed to drop (hysteresis).
	// Zero selects 3.
	DecreaseAfter int
	// EpochDuration is the analysis window length in seconds of signal
	// time. Required.
	EpochDuration float64
	// Memory, when true, remembers the historical maximum Nyquist rate
	// and never lets the poll rate drop below Headroom times it — the
	// paper's "remember previous maximum Nyquist rates to ramp up more
	// quickly" hardened into a floor.
	Memory bool
	// Estimator configures the per-window Nyquist estimation.
	Estimator EstimatorConfig
	// Detector configures dual-rate aliasing checks.
	Detector DualRateConfig
}

// minRate is the adapted rate's floor.
func (c AdaptiveConfig) minRate() float64 { return c.MaxRate / 1e6 }

func (c AdaptiveConfig) validate() (AdaptiveConfig, error) {
	if !(c.InitialRate > 0) {
		return c, errors.New("core: adaptive sampler needs a positive initial rate")
	}
	if !(c.MaxRate > 0) {
		return c, errors.New("core: adaptive sampler needs a positive max rate")
	}
	if c.Headroom <= 0 {
		c.Headroom = 2
	}
	if c.ProbeFactor <= 1 {
		c.ProbeFactor = 2
	}
	if c.DecayFactor <= 0 || c.DecayFactor > 1 {
		c.DecayFactor = 0.5
	}
	if c.DecreaseAfter <= 0 {
		c.DecreaseAfter = 3
	}
	if !(c.EpochDuration > 0) {
		return c, errors.New("core: adaptive sampler needs a positive epoch duration")
	}
	return c, nil
}

// Epoch records one adaptation step.
type Epoch struct {
	// Index is the epoch number, starting at 0.
	Index int
	// Start is the signal time at which the epoch began, in seconds.
	Start float64
	// Mode is the state the sampler was in while measuring this epoch.
	Mode Mode
	// Rate is the poll rate used during this epoch, in hertz.
	Rate float64
	// Aliased is the dual-rate verdict for this epoch.
	Aliased bool
	// AliasScore is the spectral divergence score behind Aliased.
	AliasScore float64
	// EstimatedNyquist is the per-window estimate (0 while probing or
	// when estimation failed).
	EstimatedNyquist float64
	// NextRate is the poll rate chosen for the following epoch.
	NextRate float64
	// Samples is the number of measurements spent in this epoch,
	// including the companion slow-rate probe.
	Samples int
}

// RunResult summarizes an adaptive sampling run.
type RunResult struct {
	// Epochs holds one record per adaptation step, in order.
	Epochs []Epoch
	// TotalSamples is the total measurement cost of the run.
	TotalSamples int
	// FinalRate is the poll rate after the last epoch.
	FinalRate float64
	// MaxNyquistSeen is the largest per-window Nyquist estimate.
	MaxNyquistSeen float64
}

// ConvergedRate returns the most common converged-mode rate of the run's
// final third, a stable summary of where the loop settled.
func (r *RunResult) ConvergedRate() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	start := len(r.Epochs) * 2 / 3
	var sum float64
	var n int
	for _, e := range r.Epochs[start:] {
		if e.Mode == Converged {
			sum += e.Rate
			n++
		}
	}
	if n == 0 {
		return r.FinalRate
	}
	return sum / float64(n)
}

// AdaptiveSampler drives the probe/converge/decay loop of §4.2 over a
// signal source.
type AdaptiveSampler struct {
	cfg      AdaptiveConfig
	detector *DualRateDetector
	est      *Estimator

	rate        float64
	mode        Mode
	lowStreak   int
	memoryFloor float64
	maxSeen     float64
}

// NewAdaptiveSampler validates cfg and returns a ready sampler.
func NewAdaptiveSampler(cfg AdaptiveConfig) (*AdaptiveSampler, error) {
	c, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	est, err := NewEstimator(c.Estimator)
	if err != nil {
		return nil, err
	}
	return &AdaptiveSampler{
		cfg:      c,
		detector: NewDualRateDetector(c.Detector),
		est:      est,
		rate:     clamp(c.InitialRate, c.minRate(), c.MaxRate),
		mode:     Probing,
	}, nil
}

// Run advances the sampler over duration seconds of signal time starting
// at start, one epoch per cfg.EpochDuration, and returns the full log.
func (a *AdaptiveSampler) Run(src Sampler, start, duration float64) (*RunResult, error) {
	if src == nil {
		return nil, errors.New("core: nil sampler source")
	}
	if !(duration > 0) {
		return nil, errors.New("core: non-positive run duration")
	}
	res := &RunResult{}
	epochs := int(duration / a.cfg.EpochDuration)
	if epochs < 1 {
		epochs = 1
	}
	for i := 0; i < epochs; i++ {
		e, err := a.Step(src, start+float64(i)*a.cfg.EpochDuration)
		if err != nil {
			return nil, fmt.Errorf("core: epoch %d: %w", i, err)
		}
		e.Index = i
		res.Epochs = append(res.Epochs, *e)
		res.TotalSamples += e.Samples
	}
	res.FinalRate = a.rate
	res.MaxNyquistSeen = a.maxSeen
	return res, nil
}

// Step measures one epoch at the current rate, updates the state machine
// and returns the record. It is exported so pollers can drive the loop on
// live data instead of a closed-form source.
func (a *AdaptiveSampler) Step(src Sampler, start float64) (*Epoch, error) {
	e := &Epoch{Start: start, Mode: a.mode, Rate: a.rate}
	verdict, cost, err := a.detector.Probe(src, start, a.cfg.EpochDuration, a.rate, 0)
	if errors.Is(err, ErrTooShort) {
		// The current rate yields too few samples per epoch to even
		// check for aliasing; treat it like a positive verdict and
		// probe upward, which also fixes the sample count.
		verdict = &Verdict{Aliased: true}
		cost = int(a.cfg.EpochDuration * a.rate)
		err = nil
	}
	if err != nil {
		return nil, err
	}
	e.Samples = cost
	e.Aliased = verdict.Aliased
	e.AliasScore = verdict.Score

	switch {
	case verdict.Aliased:
		// §4.2: multiplicatively increase while aliasing persists.
		a.mode = Probing
		a.lowStreak = 0
		a.setRate(a.rate * a.cfg.ProbeFactor)
	default:
		// No aliasing: the fast-rate window is trustworthy; estimate
		// the Nyquist rate from it (§3.2 method).
		est := a.estimateWindow(src, start)
		e.EstimatedNyquist = est
		if est > 0 {
			if est > a.maxSeen {
				a.maxSeen = est
			}
			if a.cfg.Memory {
				a.memoryFloor = a.cfg.Headroom * a.maxSeen
			}
			target := a.cfg.Headroom * est
			if target >= a.rate {
				a.setRate(target)
				a.lowStreak = 0
			} else {
				a.lowStreak++
				if a.lowStreak >= a.cfg.DecreaseAfter {
					next := a.rate*a.cfg.DecayFactor + target*(1-a.cfg.DecayFactor)
					if a.cfg.Memory && next < a.memoryFloor {
						next = a.memoryFloor
					}
					a.setRate(next)
				}
			}
			a.mode = Converged
		}
	}
	e.NextRate = a.rate
	return e, nil
}

func (a *AdaptiveSampler) estimateWindow(src Sampler, start float64) float64 {
	x := SampleRange(src, start, a.cfg.EpochDuration, a.rate)
	interval := time.Duration(float64(time.Second) / a.rate)
	if interval <= 0 {
		return 0
	}
	u := uniformFromSamples(x, interval)
	res, err := a.est.Estimate(u)
	if err != nil || res.Aliased {
		return 0
	}
	return res.NyquistRate
}

func (a *AdaptiveSampler) setRate(r float64) {
	a.rate = clamp(r, a.cfg.minRate(), a.cfg.MaxRate)
}

func clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}
