package dcsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// FleetConfig parameterizes fleet generation.
type FleetConfig struct {
	// Seed makes the fleet fully deterministic.
	Seed int64
	// TotalPairs is the number of metric/device pairs, spread evenly
	// across the 14 metric families. Zero selects 1613, the paper's
	// population (§3.2).
	TotalPairs int
	// UndersampledFraction, in [0, 1), forces approximately this share
	// of devices to have a true Nyquist rate above their production poll
	// rate (the paper observes ~11 %). Zero selects 0.11. Negative
	// disables forcing and lets the profile ranges decide alone.
	UndersampledFraction float64
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.TotalPairs <= 0 {
		c.TotalPairs = 1613
	}
	if c.UndersampledFraction == 0 {
		c.UndersampledFraction = 0.11
	}
	return c
}

// Fleet is a deterministic population of simulated metric/device pairs.
type Fleet struct {
	// Devices holds every metric/device pair.
	Devices []*Device
	// Seed is the seed the fleet was built with.
	Seed int64
}

// NewFleet builds the synthetic datacenter population. Device i of metric
// m draws its true Nyquist rate log-uniformly from the metric's profile
// range and its poll interval from the profile's ad-hoc production set;
// a configured fraction is then made deliberately under-sampled, matching
// the paper's observation that ~11 % of production pairs are below their
// Nyquist rate.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Fleet{Seed: cfg.Seed}
	metrics := AllMetrics()
	perMetric := cfg.TotalPairs / len(metrics)
	extra := cfg.TotalPairs % len(metrics)
	for mi, m := range metrics {
		n := perMetric
		if mi < extra {
			n++
		}
		p := ProfileFor(m)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s/dev%04d", sanitize(p.Name), i)
			interval := p.PollIntervals[rng.Intn(len(p.PollIntervals))]
			pollRate := 1 / interval.Seconds()

			seed := uint64(cfg.Seed) + uint64(mi)*1000003 + uint64(i)*7919
			var (
				dev *Device
				err error
			)
			if cfg.UndersampledFraction > 0 && rng.Float64() < cfg.UndersampledFraction {
				// Deliberately under-sampled: true Nyquist rate well
				// above the production poll rate (2-32x), with a
				// continuous (non-harmonic) spectrum so the folded
				// content smears and the trace carries the aliased
				// signature the estimator looks for.
				nyq := pollRate * (2 + 30*rng.Float64())
				dev, err = NewContinuousDevice(id, m, nyq/2, interval, rng, seed)
			} else {
				nyq := logUniform(rng, p.NyquistLo, p.NyquistHi)
				// Keep the intended over-sampled devices genuinely
				// over-sampled despite the random poll interval.
				if cfg.UndersampledFraction >= 0 && nyq >= pollRate {
					nyq = pollRate * (0.2 + 0.7*rng.Float64())
				}
				dev, err = NewDevice(id, m, nyq/2, interval, rng, seed)
			}
			if err != nil {
				return nil, err
			}
			f.Devices = append(f.Devices, dev)
		}
	}
	return f, nil
}

// Len returns the number of metric/device pairs.
func (f *Fleet) Len() int { return len(f.Devices) }

// logUniform draws from [lo, hi] log-uniformly.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	if !(lo > 0) || !(hi > lo) {
		return lo
	}
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		case r == ' ', r == '-', r == '_':
			out = append(out, '_')
		}
	}
	return string(out)
}

// Day is the trace length the paper uses per datapoint ("each datapoint is
// one day's worth of data from a distinct device", Fig. 4).
const Day = 24 * time.Hour
