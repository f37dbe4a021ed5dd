package core

import (
	"math"
	"testing"
)

func defaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		InitialRate:   1,
		MaxRate:       256,
		EpochDuration: 64,
	}
}

func TestAdaptiveConfigValidation(t *testing.T) {
	if _, err := NewAdaptiveSampler(AdaptiveConfig{MaxRate: 1, EpochDuration: 1}); err == nil {
		t.Fatal("missing initial rate should fail")
	}
	if _, err := NewAdaptiveSampler(AdaptiveConfig{InitialRate: 1, EpochDuration: 1}); err == nil {
		t.Fatal("missing max rate should fail")
	}
	if _, err := NewAdaptiveSampler(AdaptiveConfig{InitialRate: 1, MaxRate: 1}); err == nil {
		t.Fatal("missing epoch duration should fail")
	}
}

func TestAdaptiveProbesUpThenConverges(t *testing.T) {
	// Signal with content at 3 Hz. Starting at 1 Hz the sampler must
	// probe upward, then converge near Headroom * 6 Hz = 12 Hz.
	src := twoTone(0.2, 3, 1)
	a, err := NewAdaptiveSampler(defaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(src, 0, 64*40)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 40 {
		t.Fatalf("epochs = %d, want 40", len(res.Epochs))
	}
	// Early epochs must probe.
	if res.Epochs[0].Mode != Probing {
		t.Fatal("first epoch should be probing")
	}
	// Rates must have increased at some point.
	sawIncrease := false
	for _, e := range res.Epochs {
		if e.NextRate > e.Rate {
			sawIncrease = true
			break
		}
	}
	if !sawIncrease {
		t.Fatal("sampler never raised its rate")
	}
	// It must end converged with a rate comfortably above 2*3 Hz but far
	// below MaxRate.
	final := res.ConvergedRate()
	if final < 6 || final > 64 {
		t.Fatalf("converged rate = %v, want within [6, 64]", final)
	}
	if res.MaxNyquistSeen < 5 || res.MaxNyquistSeen > 8 {
		t.Fatalf("MaxNyquistSeen = %v, want ~6", res.MaxNyquistSeen)
	}
}

func TestAdaptiveDecreasesAfterQuietPeriod(t *testing.T) {
	// First 10 epochs contain a 3 Hz tone; afterwards only 0.05 Hz.
	var cfg = defaultAdaptiveConfig()
	cfg.InitialRate = 32
	cfg.DecreaseAfter = 2
	cfg.DecayFactor = 0.3
	src := SamplerFunc(func(t float64) float64 {
		v := math.Sin(2 * math.Pi * 0.05 * t)
		if t < 10*cfg.EpochDuration {
			v += math.Sin(2 * math.Pi * 3 * t)
		}
		return v
	})
	a, err := NewAdaptiveSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(src, 0, cfg.EpochDuration*60)
	if err != nil {
		t.Fatal(err)
	}
	busyRate := res.Epochs[9].Rate
	if res.FinalRate >= busyRate/2 {
		t.Fatalf("rate did not decay: busy %v, final %v", busyRate, res.FinalRate)
	}
}

func TestAdaptiveMemoryFloor(t *testing.T) {
	// Same regime change, but Memory keeps the rate near the historical
	// requirement.
	cfg := defaultAdaptiveConfig()
	cfg.InitialRate = 32
	cfg.DecreaseAfter = 2
	cfg.DecayFactor = 0.3
	cfg.Memory = true
	src := SamplerFunc(func(t float64) float64 {
		v := math.Sin(2 * math.Pi * 0.05 * t)
		if t < 10*cfg.EpochDuration {
			v += math.Sin(2 * math.Pi * 3 * t)
		}
		return v
	})
	a, err := NewAdaptiveSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(src, 0, cfg.EpochDuration*60)
	if err != nil {
		t.Fatal(err)
	}
	floor := 2.0 * res.MaxNyquistSeen // Headroom defaults to 2
	if res.FinalRate < floor*0.9 {
		t.Fatalf("memory floor violated: final %v, floor %v", res.FinalRate, floor)
	}
}

func TestAdaptiveRespectsMaxRate(t *testing.T) {
	cfg := defaultAdaptiveConfig()
	cfg.MaxRate = 8
	cfg.EpochDuration = 32
	// Content at 30 Hz can never be resolved below 60 Hz: the sampler
	// must keep probing but saturate at MaxRate.
	src := twoTone(0.1, 30, 1)
	a, err := NewAdaptiveSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(src, 0, 32*20)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Epochs {
		if e.Rate > cfg.MaxRate+1e-9 || e.NextRate > cfg.MaxRate+1e-9 {
			t.Fatalf("rate %v exceeded MaxRate %v", e.Rate, cfg.MaxRate)
		}
	}
}

func TestAdaptiveRunErrors(t *testing.T) {
	a, err := NewAdaptiveSampler(defaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(nil, 0, 100); err == nil {
		t.Fatal("nil source should fail")
	}
	if _, err := a.Run(twoTone(1, 2, 0), 0, 0); err == nil {
		t.Fatal("zero duration should fail")
	}
}

func TestAdaptiveCostBelowStaticMax(t *testing.T) {
	// The whole point: adapting must cost fewer samples than statically
	// polling at the converged-safe max rate.
	cfg := defaultAdaptiveConfig()
	src := twoTone(0.2, 2, 0.5)
	a, err := NewAdaptiveSampler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur := cfg.EpochDuration * 40
	res, err := a.Run(src, 0, dur)
	if err != nil {
		t.Fatal(err)
	}
	staticCost := int(dur * cfg.MaxRate)
	if res.TotalSamples >= staticCost {
		t.Fatalf("adaptive cost %d not below static max cost %d", res.TotalSamples, staticCost)
	}
}

func TestAdaptiveAccessors(t *testing.T) {
	a, err := NewAdaptiveSampler(defaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.rate != 1 {
		t.Fatalf("initial rate = %v, want 1", a.rate)
	}
	if a.mode != Probing {
		t.Fatalf("initial mode = %v, want Probing", a.mode)
	}
	if _, err := a.Run(twoTone(0.2, 1, 0.5), 0, 64*5); err != nil {
		t.Fatal(err)
	}
	if a.rate <= 0 {
		t.Fatal("rate after run should be positive")
	}
}

func TestModeString(t *testing.T) {
	if Probing.String() != "probing" || Converged.String() != "converged" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "unknown" {
		t.Fatal("unknown mode name wrong")
	}
}
