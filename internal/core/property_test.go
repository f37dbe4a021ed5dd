package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property tests on the estimator's core invariants, run over randomized
// band-limited signals.

// randBandlimited builds a random sum of bin-aligned tones below maxBin
// cycles per window, n samples at 1 Hz.
func randBandlimited(rng *rand.Rand, n, maxBin int) ([]float64, int) {
	k := 1 + rng.Intn(maxBin)
	nTones := 1 + rng.Intn(4)
	vals := make([]float64, n)
	top := 0
	for tn := 0; tn < nTones; tn++ {
		bin := 1 + rng.Intn(k)
		if bin > top {
			top = bin
		}
		amp := 0.5 + rng.Float64()
		ph := 2 * math.Pi * rng.Float64()
		for i := range vals {
			vals[i] += amp * math.Sin(2*math.Pi*float64(bin)*float64(i)/float64(n)+ph)
		}
	}
	return vals, top
}

func TestEstimatorNeverUnderestimatesTopToneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 1024
		vals, top := randBandlimited(rng, n, 100)
		var e Estimator
		res, err := e.Estimate(uniformFromSamples(vals, time.Second))
		if errors.Is(err, ErrAliased) {
			return true // conservative outcomes are acceptable
		}
		if err != nil {
			return false
		}
		// The cut-off must sit at or above the strongest content... at
		// least, the reported rate must cover the top tone's frequency
		// minus the 1% energy the threshold may legitimately drop.
		// Guarantee checked: never below half the true requirement.
		trueNyquist := 2 * float64(top) / float64(n)
		return res.NyquistRate >= trueNyquist/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorCutoffMonotoneProperty(t *testing.T) {
	// A higher energy cut-off must never yield a lower Nyquist estimate
	// on the same trace.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 1024
		vals, _ := randBandlimited(rng, n, 80)
		for i := range vals {
			vals[i] += 0.01 * rng.NormFloat64()
		}
		u := uniformFromSamples(vals, time.Second)
		prev := 0.0
		for _, cutoff := range []float64{0.5, 0.9, 0.99} {
			e, err := NewEstimator(EstimatorConfig{EnergyCutoff: cutoff})
			if err != nil {
				return false
			}
			res, err := e.Estimate(u)
			if errors.Is(err, ErrAliased) {
				return true // later (higher) cutoffs would also alias
			}
			if err != nil {
				return false
			}
			if res.NyquistRate < prev-1e-12 {
				return false
			}
			prev = res.NyquistRate
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripFidelityMonotoneInRateProperty(t *testing.T) {
	// More budget (a higher target rate) must never make reconstruction
	// meaningfully worse.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 2048
		vals, top := randBandlimited(rng, n, 60)
		u := uniformFromSamples(vals, time.Second)
		trueNyquist := 2 * float64(top) / float64(n)
		prevNRMSE := math.Inf(1)
		for _, mult := range []float64{0.3, 1.5, 6} {
			_, fid, err := RoundTrip(u, mult*trueNyquist, ReconstructConfig{})
			if err != nil {
				return false
			}
			if fid.NRMSE > prevNRMSE+0.05 {
				return false
			}
			prevNRMSE = fid.NRMSE
		}
		// At 1.5x the requirement the round trip must be essentially
		// lossless (bin-aligned content, integer-divisible preferred
		// factors).
		_, fid, err := RoundTrip(u, 1.5*trueNyquist, ReconstructConfig{})
		if err != nil {
			return false
		}
		return fid.NRMSE < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMovingWindowCountProperty(t *testing.T) {
	f := func(winSeed, stepSeed uint8) bool {
		n := 2048
		vals, _ := randBandlimited(rand.New(rand.NewSource(3)), n, 50)
		u := uniformFromSamples(vals, time.Second)
		winSamples := 64 + int(winSeed)%1000
		stepSamples := 1 + int(stepSeed)%500
		win := time.Duration(winSamples) * time.Second
		step := time.Duration(stepSamples) * time.Second
		var e Estimator
		res, err := e.MovingWindow(u, win, step)
		if err != nil {
			return errors.Is(err, ErrTooShort)
		}
		want := (n-winSamples)/stepSamples + 1
		return len(res) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveRateAlwaysBoundedProperty(t *testing.T) {
	f := func(seed int64, initSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f1 := 0.05 + 2*rng.Float64()
		sig := SamplerFunc(func(ts float64) float64 {
			return math.Sin(2 * math.Pi * f1 * ts)
		})
		cfg := AdaptiveConfig{
			InitialRate:   0.1 + float64(initSeed)/32,
			MaxRate:       16,
			EpochDuration: 64,
		}
		a, err := NewAdaptiveSampler(cfg)
		if err != nil {
			return false
		}
		run, err := a.Run(sig, 0, 64*15)
		if err != nil {
			return false
		}
		for _, e := range run.Epochs {
			if e.Rate < cfg.minRate()-1e-12 || e.Rate > cfg.MaxRate+1e-12 {
				return false
			}
			if e.NextRate < cfg.minRate()-1e-12 || e.NextRate > cfg.MaxRate+1e-12 {
				return false
			}
		}
		return run.TotalSamples > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
