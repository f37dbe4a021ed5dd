package experiments

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
)

func slowTone(f float64) core.SamplerFunc {
	return func(t float64) float64 { return 40 + 10*math.Sin(2*math.Pi*f*t) }
}

// TestCompareAdaptiveBeatsStaticOnSlowSignal: a signal with a 0.002 Hz
// component polled statically at 1 Hz is massively oversampled; the
// adaptive loop must slash cost while keeping reconstruction quality high.
// Both sides are scored over the whole 1024 s epochs the loop ran, so a
// span with a partial epoch reads as the whole epochs before it, and a
// one-epoch run reconstructs all of its epoch.
func TestCompareAdaptiveBeatsStaticOnSlowSignal(t *testing.T) {
	for _, tc := range []struct {
		duration time.Duration
		epochs   int
	}{
		{1024 * time.Second, 1},
		{2047 * time.Second, 1},
		{2048 * time.Second, 2},
		{4096 * time.Second, 4},
	} {
		cmp, err := Compare(slowTone(0.002), 0, tc.duration, CompareConfig{
			StaticInterval: time.Second,
			Adaptive:       core.AdaptiveConfig{InitialRate: 0.05, MaxRate: 1, EpochDuration: 1024},
			ReferenceRate:  1,
			Model:          monitor.DefaultCostModel(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(cmp.Run.Epochs) != tc.epochs || cmp.StaticCost.Samples != 1024*tc.epochs {
			t.Fatalf("%v: %d epochs, static bill %d; want %d epochs billed %d samples",
				tc.duration, len(cmp.Run.Epochs), cmp.StaticCost.Samples, tc.epochs, 1024*tc.epochs)
		}
		if cmp.CostReduction < 5 || cmp.CostReduction > 15 {
			t.Fatalf("%v: cost reduction = %v, want within [5, 15]", tc.duration, cmp.CostReduction)
		}
		if cmp.Fidelity.NRMSE > 0.05 {
			t.Fatalf("%v: NRMSE = %v, want < 0.05", tc.duration, cmp.Fidelity.NRMSE)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(nil, 0, time.Minute, CompareConfig{StaticInterval: time.Second, ReferenceRate: 1}); err == nil {
		t.Fatal("nil target should fail")
	}
	if _, err := Compare(slowTone(0.01), 0, time.Minute, CompareConfig{ReferenceRate: 1}); err == nil {
		t.Fatal("zero static interval should fail")
	}
	if _, err := Compare(slowTone(0.01), 0, time.Minute, CompareConfig{StaticInterval: time.Second}); err == nil {
		t.Fatal("zero reference rate should fail")
	}
}
