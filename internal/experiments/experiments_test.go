package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

// smallFleet keeps census tests fast while remaining statistically
// meaningful (20 devices per metric family).
var smallFleet = FleetConfig{Seed: 1, Pairs: 280}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	res, err := RunFig1(smallFleet)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 14 || len(res.FractionAbove) != 14 {
		t.Fatalf("metrics = %d, want 14", len(res.Metrics))
	}
	// The paper's Fig. 1: the vast majority of devices oversample, for
	// every metric.
	for i, f := range res.FractionAbove {
		if f < 0.5 || f > 1 {
			t.Errorf("%s: oversampled fraction %.2f outside [0.5, 1]", res.Metrics[i], f)
		}
	}
	// Aggregate: ~89% oversampled.
	if got := res.Census.OversampledFraction(); got < 0.75 || got > 0.97 {
		t.Fatalf("census oversampled fraction = %.2f, want ~0.89", got)
	}
	if out := res.Render(); !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Temperature") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFig2AliasGeometry(t *testing.T) {
	res, err := RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AbovePeak-res.Tone) > 1 {
		t.Fatalf("above-Nyquist peak at %v, want %v", res.AbovePeak, res.Tone)
	}
	if math.Abs(res.BelowPeak-res.PredictedImage) > 1 {
		t.Fatalf("alias image at %v, predicted %v", res.BelowPeak, res.PredictedImage)
	}
	if !strings.Contains(res.Render(), "aliases") {
		t.Fatal("render missing explanation")
	}
}

func TestFig3AliasingDemo(t *testing.T) {
	res, err := RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 3 {
		t.Fatalf("variants = %d", len(res.Variants))
	}
	above, slightly, far := res.Variants[0], res.Variants[1], res.Variants[2]
	// Above Nyquist: peaks at 400 and 440, near-exact reconstruction.
	if math.Abs(above.PeakFreqs[0]-400) > 2 || math.Abs(above.PeakFreqs[1]-440) > 2 {
		t.Fatalf("890 Hz peaks = %v, want 400/440", above.PeakFreqs)
	}
	if above.Fidelity.NRMSE > 1e-6 {
		t.Fatalf("890 Hz NRMSE = %v, want ~0", above.Fidelity.NRMSE)
	}
	// Slightly below: the 440 Hz tone must have moved (aliased image at
	// 800-440=360; the 400 Hz tone sits exactly on the folding frequency
	// and collapses), and reconstruction must degrade.
	if math.Abs(slightly.PeakFreqs[0]-360) > 2 && math.Abs(slightly.PeakFreqs[1]-360) > 2 {
		t.Fatalf("800 Hz image peaks = %v, want 360 present", slightly.PeakFreqs)
	}
	for _, p := range slightly.PeakFreqs {
		if math.Abs(p-440) < 2 {
			t.Fatalf("800 Hz sampling cannot show the true 440 Hz tone: %v", slightly.PeakFreqs)
		}
	}
	if slightly.Fidelity.NRMSE < 100*above.Fidelity.NRMSE {
		t.Fatalf("800 Hz NRMSE %v not clearly worse than 890 Hz %v", slightly.Fidelity.NRMSE, above.Fidelity.NRMSE)
	}
	// Far below: images at 600-400=200 and 600-440=160.
	if math.Abs(far.PeakFreqs[0]-160) > 2 || math.Abs(far.PeakFreqs[1]-200) > 2 {
		t.Fatalf("600 Hz image peaks = %v, want 160/200", far.PeakFreqs)
	}
	if far.Fidelity.NRMSE < slightly.Fidelity.NRMSE {
		t.Fatalf("600 Hz should be worse than 800 Hz: %v vs %v", far.Fidelity.NRMSE, slightly.Fidelity.NRMSE)
	}
	if out := res.Render(); !strings.Contains(out, "Figure 3") || !strings.Contains(out, "PSD") {
		t.Fatal("render incomplete")
	}
}

func TestFig4ReductionCDFs(t *testing.T) {
	res, err := RunFig4(smallFleet)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) < 12 {
		t.Fatalf("only %d metrics usable", len(res.Metrics))
	}
	if res.Pooled.Len() < 200 {
		t.Fatalf("pooled pairs = %d", res.Pooled.Len())
	}
	// Paper: substantial mass at >=1000x (about 20%); allow a wide band
	// for the small fleet.
	if res.FracAbove1000 < 0.05 || res.FracAbove1000 > 0.5 {
		t.Fatalf("frac >= 1000x = %.2f, want ~0.2", res.FracAbove1000)
	}
	// Median reduction must show heavy oversampling overall.
	if med := res.Pooled.Quantile(0.5); med < 5 {
		t.Fatalf("pooled median reduction = %v, want > 5x", med)
	}
	if out := res.Render(); !strings.Contains(out, "Figure 4") || !strings.Contains(out, "1000x") {
		t.Fatal("render incomplete")
	}
}

func TestFig5NyquistBoxes(t *testing.T) {
	res, err := RunFig5(smallFleet)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) < 12 {
		t.Fatalf("metrics = %d", len(res.Metrics))
	}
	for i, bx := range res.Boxes {
		if !(bx.Min <= bx.Median && bx.Median <= bx.Max) {
			t.Fatalf("%s: unordered box %+v", res.Metrics[i], bx)
		}
		if bx.Min <= 0 {
			t.Fatalf("%s: non-positive Nyquist rate %v", res.Metrics[i], bx.Min)
		}
		// Fig. 5's y axis spans 0..0.008 Hz; our under-sampled devices
		// with 30 s polls can report up to ~fs/2 before the aliased
		// guard trips, so allow a little more.
		if bx.Max > 0.04 {
			t.Fatalf("%s: max %v far above Fig. 5 range", res.Metrics[i], bx.Max)
		}
	}
	// Temperature spread should roughly match the paper's reported
	// range: minimum near 1e-6, maximum near 3e-3.
	if res.TemperatureRange[0] > 1e-4 {
		t.Fatalf("temperature min %v too high", res.TemperatureRange[0])
	}
	if res.TemperatureRange[1] < 3e-4 {
		t.Fatalf("temperature max %v too low", res.TemperatureRange[1])
	}
	if out := res.Render(); !strings.Contains(out, "Figure 5") {
		t.Fatal("render incomplete")
	}
}

func TestFig6RoundTripNearZeroL2(t *testing.T) {
	res, err := RunFig6(Fig6Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The estimated rate must sit well below the 5-minute production
	// rate (the trace is oversampled) and the reconstruction must be
	// essentially lossless after quantization recovery.
	if res.NyquistRate >= res.PollRate {
		t.Fatalf("Nyquist %v not below poll rate %v", res.NyquistRate, res.PollRate)
	}
	if res.Fidelity.CostReduction() < 2 {
		t.Fatalf("cost reduction %v, want >= 2x", res.Fidelity.CostReduction())
	}
	if res.Fidelity.NRMSE > 0.02 {
		t.Fatalf("requantized NRMSE = %v, want ~0", res.Fidelity.NRMSE)
	}
	// Quantization recovery must not hurt.
	if res.Fidelity.RMSE > res.FidelityNoQuant.RMSE+0.3 {
		t.Fatalf("requantized RMSE %v much worse than raw %v", res.Fidelity.RMSE, res.FidelityNoQuant.RMSE)
	}
	if res.AdaptiveRate <= 0 {
		t.Fatal("adaptive loop never converged")
	}
	if out := res.Render(); !strings.Contains(out, "Figure 6") || !strings.Contains(out, "L2") {
		t.Fatal("render incomplete")
	}
}

func TestFig7TracksRegimeChange(t *testing.T) {
	res, err := RunFig7(Fig7Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 100 {
		t.Fatalf("points = %d, want hundreds (5-min steps over days)", len(res.Points))
	}
	// The burst must raise the inferred rate markedly.
	if res.PostMedian < 2*res.PreMedian {
		t.Fatalf("post-shift median %v not above pre-shift %v", res.PostMedian, res.PreMedian)
	}
	// Window step honored: consecutive points 5 minutes apart.
	if len(res.Points) > 1 {
		if got := res.Points[1].WindowStart.Sub(res.Points[0].WindowStart); got != 5*time.Minute {
			t.Fatalf("step = %v, want 5m", got)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Figure 7") {
		t.Fatal("render incomplete")
	}
}

func TestDualRateSweep(t *testing.T) {
	res, err := RunDualRate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Correct < len(res.Rows)-1 {
		t.Fatalf("only %d/%d verdicts correct", res.Correct, len(res.Rows))
	}
	if out := res.Render(); !strings.Contains(out, "dual-rate") {
		t.Fatal("render incomplete")
	}
}

func TestAdaptiveExperiment(t *testing.T) {
	res, err := RunAdaptive(1)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Comparison
	if c.CostReduction < 2 {
		t.Fatalf("cost reduction = %v, want > 2x", c.CostReduction)
	}
	if c.Fidelity.NRMSE > 0.25 {
		t.Fatalf("NRMSE = %v too high", c.Fidelity.NRMSE)
	}
	// The rate trajectory must rise during the burst interval.
	var quietMax, burstMax float64
	for _, e := range c.Run.Epochs {
		if e.Start < 86400/3 {
			if e.Rate > quietMax {
				quietMax = e.Rate
			}
		} else if e.Start < 86400/2 {
			if e.Rate > burstMax {
				burstMax = e.Rate
			}
		}
	}
	if burstMax <= quietMax {
		t.Fatalf("rate did not rise during burst: quiet %v, burst %v", quietMax, burstMax)
	}
	if out := res.Render(); !strings.Contains(out, "adaptive") {
		t.Fatal("render incomplete")
	}
}

func TestCutoffAblation(t *testing.T) {
	res, err := RunCutoffAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Higher cut-off must not lower the median estimated rate, and must
	// raise (or hold) the aliased fraction — the paper's 99.99% caveat.
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		usable := cur.AliasedFrac < 0.99
		if usable && cur.MedianNyquist < prev.MedianNyquist*0.9 {
			t.Fatalf("cutoff %v median rate %v below cutoff %v rate %v",
				cur.Cutoff, cur.MedianNyquist, prev.Cutoff, prev.MedianNyquist)
		}
		if cur.AliasedFrac+1e-9 < prev.AliasedFrac {
			t.Fatalf("aliased fraction dropped when cutoff rose: %v -> %v", prev.AliasedFrac, cur.AliasedFrac)
		}
	}
	if out := res.Render(); !strings.Contains(out, "cut-off") {
		t.Fatal("render incomplete")
	}
}

func TestCensusCountsConsistent(t *testing.T) {
	pairs, err := censusFleet(FleetConfig{Seed: 5, Pairs: 140})
	if err != nil {
		t.Fatal(err)
	}
	c := summarizeCensus(pairs)
	if c.Pairs != 140 {
		t.Fatalf("pairs = %d", c.Pairs)
	}
	if c.Oversampled+c.Undersampled+c.Errors != c.Pairs {
		t.Fatalf("census buckets don't add up: %+v", c)
	}
	if c.Aliased > c.Undersampled {
		t.Fatalf("aliased %d exceeds undersampled %d", c.Aliased, c.Undersampled)
	}
}
