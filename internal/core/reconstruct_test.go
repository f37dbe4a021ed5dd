package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/series"
)

func TestRoundTripBandlimitedIsLossless(t *testing.T) {
	// Band-limited bin-aligned signal at 40/4096 Hz sampled at 1 Hz;
	// downsampling 16x (still above the Nyquist rate) and reconstructing
	// must be essentially exact — Fig. 6's "L2 distance is 0".
	u := tone(4096, 1, 0, 40.0/4096)
	rec, fid, err := RoundTrip(u, 1.0/16, ReconstructConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Values) != len(u.Values) {
		t.Fatalf("reconstruction length %d, want %d", len(rec.Values), len(u.Values))
	}
	if fid.NRMSE > 1e-9 {
		t.Fatalf("NRMSE = %v, want ~0", fid.NRMSE)
	}
	if fid.CostReduction() < 15 {
		t.Fatalf("cost reduction = %v, want ~16x", fid.CostReduction())
	}
}

func TestRoundTripBelowNyquistDegrades(t *testing.T) {
	u := tone(4096, 1, 0, 200.0/4096) // Nyquist rate ~0.098 Hz
	_, good, err := RoundTrip(u, 0.25, ReconstructConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, bad, err := RoundTrip(u, 0.02, ReconstructConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if bad.RMSE <= good.RMSE*10 {
		t.Fatalf("sub-Nyquist RMSE %v not clearly worse than safe RMSE %v", bad.RMSE, good.RMSE)
	}
}

func TestDownsampleInterval(t *testing.T) {
	u := tone(1000, 1, 0, 0.01)
	d, err := Downsample(u, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if d.Interval != 4*time.Second {
		t.Fatalf("interval = %v, want 4s", d.Interval)
	}
	if len(d.Values) != 250 {
		t.Fatalf("len = %d, want 250", len(d.Values))
	}
	if !d.Start.Equal(u.Start) {
		t.Fatal("downsample moved the start time")
	}
}

func TestDownsampleAboveRateIsCopy(t *testing.T) {
	u := tone(64, 1, 3, 0.05)
	d, err := Downsample(u, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Values) != len(u.Values) {
		t.Fatal("copy expected")
	}
	d.Values[0] = 999
	if u.Values[0] == 999 {
		t.Fatal("downsample aliased the input slice")
	}
}

func TestDownsampleErrors(t *testing.T) {
	if _, err := Downsample(nil, 1); !errors.Is(err, series.ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	u := tone(64, 1, 0, 0.05)
	if _, err := Downsample(u, 0); err == nil {
		t.Fatal("zero target rate should fail")
	}
}

func TestReconstructQuantizationRecovery(t *testing.T) {
	// Quantized slow signal: re-quantizing the reconstruction recovers
	// the original readings exactly (paper §4.3 (b)).
	n := 2048
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Round(20 + 5*math.Sin(2*math.Pi*10*float64(i)/float64(n)))
	}
	u := uniformFromSamples(vals, time.Second)
	down, err := Downsample(u, 1.0/16)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Reconstruct(down, n, ReconstructConfig{QuantStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper notes the recovered quantized signal "may be slightly
	// different": quantization noise near a rounding boundary can flip
	// one quantum. Demand interior errors of at most one quantum and
	// exact recovery for the vast majority of samples.
	lo, hi := n/10, 9*n/10
	interior, err := CompareSignals(u.Values[lo:hi], rec.Values[lo:hi])
	if err != nil {
		t.Fatal(err)
	}
	if interior.MaxAbs > 1 {
		t.Fatalf("interior max error %v after re-quantization, want <= 1 quantum", interior.MaxAbs)
	}
	exact := 0
	for i := lo; i < hi; i++ {
		if u.Values[i] == rec.Values[i] {
			exact++
		}
	}
	if frac := float64(exact) / float64(hi-lo); frac < 0.9 {
		t.Fatalf("only %.1f%% of interior samples recovered exactly", 100*frac)
	}
}

func TestReconstructErrors(t *testing.T) {
	if _, err := Reconstruct(nil, 10, ReconstructConfig{}); !errors.Is(err, series.ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	u := tone(64, 1, 0, 0.05)
	if _, err := Reconstruct(u, 10, ReconstructConfig{}); err == nil {
		t.Fatal("shrinking reconstruction should fail")
	}
}

func TestCompareSignals(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 3, 4}
	f, err := CompareSignals(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if f.L2 != 0 || f.RMSE != 0 || f.MaxAbs != 0 {
		t.Fatalf("identical signals: %+v", f)
	}
	if !math.IsInf(f.SNRdB, 1) {
		t.Fatalf("SNR = %v, want +Inf", f.SNRdB)
	}
	b = []float64{2, 2, 3, 4}
	f, err = CompareSignals(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if f.MaxAbs != 1 || math.Abs(f.L2-1) > 1e-12 {
		t.Fatalf("fidelity = %+v", f)
	}
	if math.Abs(f.NRMSE-0.5/3) > 1e-12 {
		t.Fatalf("NRMSE = %v, want %v", f.NRMSE, 0.5/3)
	}
}

func TestCompareSignalsErrors(t *testing.T) {
	if _, err := CompareSignals([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
	if _, err := CompareSignals(nil, nil); err == nil {
		t.Fatal("empty comparison should fail")
	}
}

func TestCompareSignalsConstantNRMSE(t *testing.T) {
	f, err := CompareSignals([]float64{5, 5}, []float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.NRMSE) {
		t.Fatalf("NRMSE on constant original = %v, want NaN", f.NRMSE)
	}
}

func TestFidelityCostReductionUnset(t *testing.T) {
	var f Fidelity
	if f.CostReduction() != 0 {
		t.Fatal("unset cost reduction should be 0")
	}
}
