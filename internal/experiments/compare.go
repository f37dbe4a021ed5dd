package experiments

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/series"
)

// Comparison is a head-to-head of a fixed production poll rate against the
// paper's adaptive loop (§4.2) on the same device over the same span: the
// cost/quality sweet spot quantified.
type Comparison struct {
	// StaticCost is the fixed-rate poll's bill.
	StaticCost monitor.Cost
	// AdaptiveCost is the adaptive loop's bill (probe samples included).
	AdaptiveCost monitor.Cost
	// CostReduction is StaticCost.Samples / AdaptiveCost.Samples.
	CostReduction float64
	// Fidelity compares the reconstruction from the adaptive trace
	// against the dense reference trace.
	Fidelity *core.Fidelity
	// Run is the adaptive loop's epoch log and final rate.
	Run *core.RunResult
}

// CompareConfig parameterizes Compare.
type CompareConfig struct {
	// StaticInterval is the production poll interval being challenged.
	StaticInterval time.Duration
	// Adaptive drives the adaptive loop.
	Adaptive core.AdaptiveConfig
	// ReferenceRate is the dense sampling rate (hertz) used to build the
	// ground-truth reference for fidelity scoring. It must resolve the
	// signal (well above its Nyquist rate).
	ReferenceRate float64
	// QuantStep re-quantizes the reconstruction (0 = off).
	QuantStep float64
	// Model prices samples for both sides.
	Model monitor.CostModel
}

// Compare runs the adaptive loop from offset seconds of the target's signal
// time for the whole epochs that fit in duration (at least one), and scores
// both sides' cost and the adaptive side's fidelity over exactly the span
// those epochs measured.
func Compare(target core.Sampler, offset float64, duration time.Duration, cfg CompareConfig) (*Comparison, error) {
	if target == nil {
		return nil, errors.New("experiments: nil target")
	}
	if cfg.StaticInterval <= 0 {
		return nil, series.ErrBadInterval
	}
	if !(cfg.ReferenceRate > 0) {
		return nil, errors.New("experiments: reference rate must be positive")
	}
	sampler, err := core.NewAdaptiveSampler(cfg.Adaptive)
	if err != nil {
		return nil, err
	}
	run, err := sampler.Run(target, offset, duration.Seconds())
	if err != nil {
		return nil, err
	}
	epochDur := cfg.Adaptive.EpochDuration
	span := float64(len(run.Epochs)) * epochDur

	var staticCost, adaptiveCost monitor.Cost
	staticCost.Add(cfg.Model, max(1, int(span/cfg.StaticInterval.Seconds())))
	adaptiveCost.Add(cfg.Model, run.TotalSamples)

	ref := core.SampleRange(target, offset, span, cfg.ReferenceRate)
	rec, err := reconstructFromEpochs(target, run, epochDur, cfg.ReferenceRate, cfg.QuantStep, len(ref))
	if err != nil {
		return nil, err
	}
	fid, err := core.CompareSignals(ref, rec)
	if err != nil {
		return nil, err
	}
	fid.SamplesBefore = staticCost.Samples
	fid.SamplesAfter = adaptiveCost.Samples

	cmp := &Comparison{
		StaticCost:   staticCost,
		AdaptiveCost: adaptiveCost,
		Fidelity:     fid,
		Run:          run,
	}
	if adaptiveCost.Samples > 0 {
		cmp.CostReduction = float64(staticCost.Samples) / float64(adaptiveCost.Samples)
	}
	return cmp, nil
}

// reconstructFromEpochs rebuilds n samples at refRate from the adaptive
// run: each epoch's epochDur seconds of primary-rate samples are upsampled
// (band-limited interpolation) to refRate.
func reconstructFromEpochs(target core.Sampler, run *core.RunResult, epochDur, refRate, quantStep float64, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for _, e := range run.Epochs {
		vals := core.SampleRange(target, e.Start, epochDur, e.Rate)
		epoch := &series.Uniform{Interval: time.Duration(float64(time.Second) / e.Rate), Values: vals}
		rec, err := core.Reconstruct(epoch, max(len(vals), int(epochDur*refRate)), core.ReconstructConfig{QuantStep: quantStep})
		if err != nil {
			return nil, err
		}
		out = append(out, rec.Values...)
	}
	// Pad or trim to the exact reference length (rounding drift across
	// epochs is at most a few samples).
	for len(out) < n {
		out = append(out, out[len(out)-1])
	}
	return out[:n], nil
}
