package monitor

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// StaticPoller samples a target at a fixed interval — today's production
// behaviour (§3.1: rates chosen by defaults and gut feeling, never
// re-considered).
type StaticPoller struct {
	// ID names the series written to the store.
	ID string
	// Target is the signal being polled.
	Target core.Sampler
	// Interval is the fixed poll interval.
	Interval time.Duration
	// Model prices the samples.
	Model CostModel
	// Stream, when non-nil, receives every polled sample — a streaming
	// estimator riding the production poll loop, so the operator learns
	// what rate the metric actually needs while today's rate keeps
	// collecting. Its Interval should match the poller's.
	Stream *core.StreamEstimator
}

// Run polls over [offset, offset+duration) seconds of signal time, writing
// to store (which may be nil for cost-only runs) with wall-clock timestamps
// anchored at start. It returns the bill.
func (p *StaticPoller) Run(store *tsdb.DB, start time.Time, offset float64, duration time.Duration) (Cost, error) {
	var cost Cost
	if p.Target == nil {
		return cost, errors.New("monitor: static poller has no target")
	}
	if p.Interval <= 0 {
		return cost, series.ErrBadInterval
	}
	ivs := p.Interval.Seconds()
	n := int(duration.Seconds() / ivs)
	if n < 1 {
		n = 1
	}
	// The riding stream's verdicts retune the store's retention tiers (the
	// estimate→retain loop), so even a never-reconsidered static rate gets
	// Nyquist-aware storage.
	var policy core.RatePolicy
	for i := 0; i < n; i++ {
		v := p.Target.At(offset + float64(i)*ivs)
		if p.Stream != nil {
			if up := p.Stream.Push(v); up != nil && store != nil {
				if up.Err != nil {
					policy.Aliased()
				} else if held, changed := policy.Clean(up.Result.NyquistRate, p.Stream.Turnover()); changed {
					store.SetNyquistRate(p.ID, held)
				}
			}
		}
		if store != nil {
			if err := store.Append(p.ID, series.Point{Time: start.Add(time.Duration(i) * p.Interval), Value: v}); err != nil {
				return cost, fmt.Errorf("monitor: %s: %w", p.ID, err)
			}
		}
	}
	cost.Add(p.Model, n)
	return cost, nil
}

// AdaptivePoller samples a target with the paper's dynamic method (§4.2):
// dual-rate aliasing checks, multiplicative probing, convergence to the
// Nyquist rate with headroom, and decay when the requirement drops.
type AdaptivePoller struct {
	// ID names the series written to the store.
	ID string
	// Target is the signal being polled.
	Target core.Sampler
	// Config drives the adaptive loop.
	Config core.AdaptiveConfig
	// Model prices the samples.
	Model CostModel
}

// AdaptiveResult reports an adaptive polling run.
type AdaptiveResult struct {
	// Cost is the total bill, including the companion-rate probes.
	Cost Cost
	// Run is the underlying adaptation log.
	Run *core.RunResult
}

// Run executes the adaptive loop over [offset, offset+duration) seconds of
// signal time. Samples taken at the primary rate are written to the store
// with timestamps anchored at start; companion-probe samples are billed
// but not stored (they exist only to detect aliasing, §4.1's ~2x cost that
// the expected >2x over-sampling savings amortize).
func (p *AdaptivePoller) Run(store *tsdb.DB, start time.Time, offset float64, duration time.Duration) (*AdaptiveResult, error) {
	if p.Target == nil {
		return nil, errors.New("monitor: adaptive poller has no target")
	}
	sampler, err := core.NewAdaptiveSampler(p.Config)
	if err != nil {
		return nil, err
	}
	run, err := sampler.Run(p.Target, offset, duration.Seconds())
	if err != nil {
		return nil, err
	}
	res := &AdaptiveResult{Run: run}
	res.Cost.Add(p.Model, run.TotalSamples)
	if store != nil {
		// Each epoch's verdict reaches retention before its samples are
		// stored: a clean estimate is the raw 2·f_max the other retain-loop
		// feeds supply (tsdb applies its own headroom when sizing tiers).
		var policy core.RatePolicy
		for _, e := range run.Epochs {
			if e.Aliased {
				policy.Aliased()
			} else if held, changed := policy.Clean(e.EstimatedNyquist, 1); changed {
				store.SetNyquistRate(p.ID, held)
			}
			// Re-materialize the primary-rate samples of this epoch for
			// storage. (The adaptive sampler already billed them.)
			n := int(p.Config.EpochDuration * e.Rate)
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				ts := e.Start + float64(i)/e.Rate
				wall := start.Add(time.Duration((ts - offset) * float64(time.Second)))
				if err := store.Append(p.ID, series.Point{Time: wall, Value: p.Target.At(ts)}); err != nil {
					return nil, fmt.Errorf("monitor: %s: %w", p.ID, err)
				}
			}
		}
	}
	return res, nil
}
