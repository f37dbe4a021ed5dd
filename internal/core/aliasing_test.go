package core

import (
	"errors"
	"math"
	"testing"
)

// twoTone is a Sampler emitting sin at f1 plus a weaker sin at f2.
func twoTone(f1, f2, a2 float64) SamplerFunc {
	return func(t float64) float64 {
		return math.Sin(2*math.Pi*f1*t) + a2*math.Sin(2*math.Pi*f2*t)
	}
}

func TestValidateRatePair(t *testing.T) {
	if err := ValidateRatePair(10, 3.7); err != nil {
		t.Fatalf("10/3.7 should be fine: %v", err)
	}
	if err := ValidateRatePair(10, 5); !errors.Is(err, ErrRateRatio) {
		t.Fatalf("integer ratio err = %v, want ErrRateRatio", err)
	}
	if err := ValidateRatePair(10, 10.01); err == nil {
		t.Fatal("slow >= fast should fail")
	}
	if err := ValidateRatePair(10, 0); err == nil {
		t.Fatal("zero slow rate should fail")
	}
	if err := ValidateRatePair(10, 3.33333); !errors.Is(err, ErrRateRatio) {
		t.Fatalf("near-integer ratio err = %v, want ErrRateRatio", err)
	}
}

func TestSuggestSlowRate(t *testing.T) {
	fast := 7.3
	slow := SuggestSlowRate(fast)
	if err := ValidateRatePair(fast, slow); err != nil {
		t.Fatalf("suggested pair invalid: %v", err)
	}
}

func TestDualRateDetectsAliasing(t *testing.T) {
	// Signal has content at 12 Hz. Slow rate 10 Hz (Nyquist 5 Hz) aliases
	// it; fast rate 37 Hz does not.
	src := twoTone(1, 12, 1)
	d := NewDualRateDetector(DualRateConfig{})
	v, _, err := d.Probe(src, 0, 30, 37, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Aliased {
		t.Fatalf("aliasing not detected, score = %v over %d bins", v.Score, v.ComparedBins)
	}
}

func TestDualRateCleanSignal(t *testing.T) {
	// Content only at 1 Hz: both 37 Hz and 10 Hz sample it faithfully.
	src := twoTone(1, 2, 0.3)
	d := NewDualRateDetector(DualRateConfig{})
	v, _, err := d.Probe(src, 0, 30, 37, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v.Aliased {
		t.Fatalf("false positive: score = %v over %d bins", v.Score, v.ComparedBins)
	}
}

func TestDualRateIntegerRatioRejected(t *testing.T) {
	d := NewDualRateDetector(DualRateConfig{})
	src := twoTone(1, 2, 0)
	if _, _, err := d.Probe(src, 0, 10, 20, 10); !errors.Is(err, ErrRateRatio) {
		t.Fatalf("err = %v, want ErrRateRatio", err)
	}
}

func TestDualRateShortWindow(t *testing.T) {
	d := NewDualRateDetector(DualRateConfig{})
	if _, err := d.Compare([]float64{1, 2}, 10, []float64{1, 2}, 3.7); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestDualRateDefaultSlowRate(t *testing.T) {
	src := twoTone(0.5, 1, 0.1)
	d := NewDualRateDetector(DualRateConfig{})
	// slowRate <= 0 selects SuggestSlowRate(fast).
	v, cost, err := d.Probe(src, 0, 60, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("probe reported zero cost")
	}
	if v.Aliased {
		t.Fatalf("clean signal flagged: score %v", v.Score)
	}
}

func TestDualRateScoreMonotoneInAliasPower(t *testing.T) {
	// More aliased energy should produce a larger divergence score.
	d := NewDualRateDetector(DualRateConfig{})
	var prev float64 = -1
	for _, amp := range []float64{0, 0.5, 2} {
		src := twoTone(1, 13, amp)
		v, _, err := d.Probe(src, 0, 30, 37, 10)
		if err != nil {
			t.Fatal(err)
		}
		if v.Score < prev-0.02 {
			t.Fatalf("score not monotone: amp=%v score=%v prev=%v", amp, v.Score, prev)
		}
		prev = v.Score
	}
}

func TestDualRateMedianPrefilterSuppressesImpulses(t *testing.T) {
	// A clean slow tone plus rare large glitches. Glitches are broadband
	// and land differently in the two samplings, so the raw comparison
	// may cry aliasing; the §4.1 median pre-filter removes them.
	glitchy := SamplerFunc(func(t float64) float64 {
		v := 10 + 3*math.Sin(2*math.Pi*0.05*t)
		// Deterministic sparse impulses ~2% of samples.
		if k := int(t * 37); k%53 == 0 {
			v += 80
		}
		return v
	})
	raw := NewDualRateDetector(DualRateConfig{})
	filtered := NewDualRateDetector(DualRateConfig{MedianPrefilter: 5})
	vRaw, _, err := raw.Probe(glitchy, 0, 120, 37, 10)
	if err != nil {
		t.Fatal(err)
	}
	vFiltered, _, err := filtered.Probe(glitchy, 0, 120, 37, 10)
	if err != nil {
		t.Fatal(err)
	}
	if vFiltered.Score >= vRaw.Score {
		t.Fatalf("prefilter did not reduce divergence: %v vs %v", vFiltered.Score, vRaw.Score)
	}
	if vFiltered.Aliased {
		t.Fatalf("glitches still read as aliasing after prefilter (score %v)", vFiltered.Score)
	}
}

func TestDualRatePrefilterStillDetectsRealAliasing(t *testing.T) {
	// The pre-filter must not blind the detector to genuine sustained
	// high-frequency content.
	src := twoTone(1, 12, 1.5)
	d := NewDualRateDetector(DualRateConfig{MedianPrefilter: 3})
	v, _, err := d.Probe(src, 0, 30, 37, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Aliased {
		t.Fatalf("real aliasing missed with prefilter on (score %v)", v.Score)
	}
}

func TestDualRateNoiseFiltered(t *testing.T) {
	// Tiny wideband component under the noise floor must not trigger.
	src := SamplerFunc(func(t float64) float64 {
		return math.Sin(2*math.Pi*1*t) + 1e-5*math.Sin(2*math.Pi*11*t)
	})
	d := NewDualRateDetector(DualRateConfig{})
	v, _, err := d.Probe(src, 0, 30, 37, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v.Aliased {
		t.Fatalf("noise-level component triggered detection: score %v", v.Score)
	}
}
