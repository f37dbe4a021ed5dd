// Package experiments regenerates every figure of the paper's evaluation.
// Each RunFigN function produces the data behind the corresponding figure
// plus a text rendering; cmd/repro drives them and EXPERIMENTS.md records
// paper-reported versus measured values.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dcsim"
)

// FleetConfig parameterizes the fleet-census experiments (Figs. 1, 4, 5).
type FleetConfig struct {
	// Seed makes the synthetic fleet deterministic.
	Seed int64
	// Pairs is the number of metric/device pairs; zero selects the
	// paper's 1613.
	Pairs int
	// TraceDuration is the per-device trace length; zero selects one
	// day, the paper's per-datapoint window.
	TraceDuration time.Duration
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Pairs <= 0 {
		c.Pairs = 1613
	}
	if c.TraceDuration <= 0 {
		c.TraceDuration = dcsim.Day
	}
	return c
}

// start is the wall-clock anchor of all experiment traces.
var start = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

// pairResult is the per-device outcome of a fleet census.
type pairResult struct {
	dev *dcsim.Device
	res *core.Result
	err error
}

// censusFleet builds the fleet and estimates every device's Nyquist rate
// from its production trace — the shared measurement pass behind Figs. 1,
// 4 and 5 and the §3.2 aggregate statistics.
func censusFleet(cfg FleetConfig) ([]pairResult, error) {
	cfg = cfg.withDefaults()
	fleet, err := dcsim.NewFleet(dcsim.FleetConfig{Seed: cfg.Seed, TotalPairs: cfg.Pairs})
	if err != nil {
		return nil, err
	}
	// The paper's method: 99 % cut-off, plain FFT.
	var est core.Estimator
	out := make([]pairResult, 0, fleet.Len())
	for _, d := range fleet.Devices {
		u := d.Trace(start, 0, cfg.TraceDuration)
		res, err := est.Estimate(u)
		out = append(out, pairResult{dev: d, res: res, err: err})
	}
	return out, nil
}

// Census is the aggregate §3.2 statistics over a fleet measurement pass.
type Census struct {
	// Pairs is the number of metric/device pairs measured.
	Pairs int
	// Oversampled is the count sampling above their estimated Nyquist
	// rate (paper: 89 % of 1613).
	Oversampled int
	// Undersampled is the count at or below it, including aliased
	// traces (paper: ~11 %).
	Undersampled int
	// Aliased is the subset of Undersampled with the aliased signature.
	Aliased int
	// Errors is the count of traces the estimator rejected outright.
	Errors int
}

// OversampledFraction returns Oversampled/Pairs.
func (c Census) OversampledFraction() float64 {
	if c.Pairs == 0 {
		return 0
	}
	return float64(c.Oversampled) / float64(c.Pairs)
}

func summarizeCensus(pairs []pairResult) Census {
	var c Census
	c.Pairs = len(pairs)
	for _, p := range pairs {
		switch {
		case p.res == nil:
			c.Errors++
		case p.res.Aliased:
			c.Aliased++
			c.Undersampled++
		case p.res.Oversampled():
			c.Oversampled++
		default:
			c.Undersampled++
		}
	}
	return c
}

func fmtHz(v float64) string {
	return fmt.Sprintf("%.3g", v)
}
