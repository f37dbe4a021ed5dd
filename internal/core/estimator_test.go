package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/series"
)

// tone builds a uniform trace of sum-of-sines at the given frequencies
// (hertz), sampled at rate for n samples, with optional offset.
func tone(n int, rate float64, offset float64, freqs ...float64) *series.Uniform {
	vals := make([]float64, n)
	for i := range vals {
		t := float64(i) / rate
		v := offset
		for j, f := range freqs {
			v += math.Sin(2*math.Pi*f*t+float64(j)) / float64(j+1)
		}
		vals[i] = v
	}
	return uniformFromSamples(vals, time.Duration(float64(time.Second)/rate))
}

func TestEstimateSingleTone(t *testing.T) {
	// 0.01 Hz tone sampled at 1 Hz for 4096 s: Nyquist rate should be
	// ~0.02 Hz and the reduction ratio ~50x.
	var e Estimator
	res, err := e.Estimate(tone(4096, 1, 10, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aliased {
		t.Fatal("clean tone reported aliased")
	}
	if math.Abs(res.NyquistRate-0.02) > 2*res.Spectrum.BinWidth() {
		t.Fatalf("NyquistRate = %v, want ~0.02", res.NyquistRate)
	}
	if res.ReductionRatio < 40 || res.ReductionRatio > 60 {
		t.Fatalf("ReductionRatio = %v, want ~50", res.ReductionRatio)
	}
	if !res.Oversampled() {
		t.Fatal("50x oversampled trace not reported Oversampled")
	}
	if res.EnergyCaptured < 0.99 {
		t.Fatalf("EnergyCaptured = %v, want >= 0.99", res.EnergyCaptured)
	}
}

func TestEstimateTwoTonesUsesHigher(t *testing.T) {
	var e Estimator
	res, err := e.Estimate(tone(8192, 1, 0, 0.01, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.NyquistRate-0.2) > 4*res.Spectrum.BinWidth() {
		t.Fatalf("NyquistRate = %v, want ~0.2 (driven by the 0.1 Hz tone)", res.NyquistRate)
	}
}

func TestEstimateWhiteNoiseAliased(t *testing.T) {
	// White noise is flat: 99% of energy needs ~99% of bins, i.e. all of
	// them within rounding -> aliased signature.
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 2048)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	u := uniformFromSamples(vals, time.Second)
	var e Estimator
	res, err := e.Estimate(u)
	if !errors.Is(err, ErrAliased) {
		t.Fatalf("white noise: err = %v, want ErrAliased (res=%+v)", err, res)
	}
	if res == nil || !res.Aliased {
		t.Fatal("aliased result not populated")
	}
	if res.NyquistRate != 0 {
		t.Fatalf("aliased NyquistRate = %v, want 0", res.NyquistRate)
	}
}

func TestEstimateDCOnlyTraceFallsBack(t *testing.T) {
	u := tone(1024, 1, 42) // constant 42
	var e Estimator
	res, err := e.Estimate(u)
	if err != nil {
		t.Fatal(err)
	}
	// A constant has no content: the estimator reports the finest
	// measurable rate (2 bin widths) rather than zero.
	if res.NyquistRate <= 0 {
		t.Fatalf("constant trace NyquistRate = %v, want > 0", res.NyquistRate)
	}
	if res.ReductionRatio <= 0 {
		t.Fatalf("constant trace ReductionRatio = %v, want > 0", res.ReductionRatio)
	}
}

func TestEstimateIncludeDC(t *testing.T) {
	// With IncludeDC, a large offset dominates and the cutoff sits at
	// bin 0; the fallback still reports a tiny positive rate.
	e, err := NewEstimator(EstimatorConfig{IncludeDC: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Estimate(tone(4096, 1, 1000, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CutoffFreq != 0 {
		t.Fatalf("CutoffFreq = %v, want 0 (DC dominates)", res.CutoffFreq)
	}
}

func TestEstimateTooShort(t *testing.T) {
	var e Estimator
	if _, err := e.Estimate(tone(4, 1, 0, 0.1)); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
	if _, err := e.Estimate(nil); !errors.Is(err, ErrTooShort) {
		t.Fatalf("nil trace err = %v, want ErrTooShort", err)
	}
}

func TestEstimatorConfigValidation(t *testing.T) {
	if _, err := NewEstimator(EstimatorConfig{EnergyCutoff: 1.5}); err == nil {
		t.Fatal("cutoff > 1 should fail")
	}
	if _, err := NewEstimator(EstimatorConfig{EnergyCutoff: -0.1}); err == nil {
		t.Fatal("negative cutoff should fail")
	}
	if _, err := NewEstimator(EstimatorConfig{EnergyCutoff: math.NaN()}); err == nil {
		t.Fatal("NaN cutoff should fail")
	}
	e, err := NewEstimator(EstimatorConfig{EnergyCutoff: 0.9, Welch: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(tone(2048, 1, 0, 0.05)); err != nil {
		t.Fatalf("welch estimate failed: %v", err)
	}
}

func TestHigherCutoffRaisesRate(t *testing.T) {
	// The paper: 99.99% would increase the estimated rate vs 99%.
	rng := rand.New(rand.NewSource(8))
	vals := make([]float64, 8192)
	for i := range vals {
		t := float64(i)
		vals[i] = math.Sin(2*math.Pi*0.01*t) + 0.05*rng.NormFloat64()
	}
	u := uniformFromSamples(vals, time.Second)
	e99, _ := NewEstimator(EstimatorConfig{EnergyCutoff: 0.99})
	e9999, _ := NewEstimator(EstimatorConfig{EnergyCutoff: 0.9999})
	r99, err := e99.Estimate(u)
	if err != nil {
		t.Fatal(err)
	}
	r9999, err := e9999.Estimate(u)
	if err != nil && !errors.Is(err, ErrAliased) {
		t.Fatal(err)
	}
	if !r9999.Aliased && r9999.NyquistRate < r99.NyquistRate {
		t.Fatalf("99.99%% cutoff rate %v below 99%% rate %v", r9999.NyquistRate, r99.NyquistRate)
	}
}

func TestEstimateSeriesIrregular(t *testing.T) {
	// Irregular 60s-ish polling of a slow tone; EstimateSeries must
	// pre-clean and still find the right rate.
	rng := rand.New(rand.NewSource(5))
	start := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)
	s := &series.Series{}
	const f0 = 1.0 / 3600 // one cycle per hour
	for i := 0; i < 2000; i++ {
		jitter := time.Duration(rng.Intn(10000)-5000) * time.Millisecond
		ts := start.Add(time.Duration(i)*60*time.Second + jitter)
		tsec := ts.Sub(start).Seconds()
		s.AppendValue(ts, math.Sin(2*math.Pi*f0*tsec))
	}
	var e Estimator
	res, err := e.EstimateSeries(s)
	if err != nil {
		t.Fatal(err)
	}
	// Jittered timestamps plus nearest-neighbour regularization spread a
	// little energy upward, so the estimate may exceed the ideal 2*f0 by
	// a modest margin — but never fall below it.
	want := 2 * f0
	if res.NyquistRate < want-res.Spectrum.BinWidth() || res.NyquistRate > 1.6*want {
		t.Fatalf("NyquistRate = %v, want within [%v, %v]", res.NyquistRate, want, 1.6*want)
	}
}

func TestNyquistNeverExceedsSampleRateProperty(t *testing.T) {
	f := func(seed int64, freqSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := 1.0
		f0 := 0.01 + 0.4*float64(freqSeed)/255 // within (0, fs/2)
		n := 1024
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Sin(2*math.Pi*f0*float64(i)/fs) + 0.01*rng.NormFloat64()
		}
		var e Estimator
		res, err := e.Estimate(uniformFromSamples(vals, time.Second))
		if errors.Is(err, ErrAliased) {
			return true
		}
		if err != nil {
			return false
		}
		return res.NyquistRate <= fs+1e-12 && res.NyquistRate > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMovingWindow(t *testing.T) {
	// Frequency doubles halfway through; windowed estimates must rise.
	const fs = 1.0
	n := 8192
	vals := make([]float64, n)
	for i := range vals {
		ts := float64(i)
		f0 := 0.01
		if i >= n/2 {
			f0 = 0.05
		}
		vals[i] = math.Sin(2 * math.Pi * f0 * ts)
	}
	u := uniformFromSamples(vals, time.Second)
	var e Estimator
	res, err := e.MovingWindow(u, 1024*time.Second, 512*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 10 {
		t.Fatalf("only %d windows", len(res))
	}
	first, last := res[0], res[len(res)-1]
	if first.Err != nil || last.Err != nil {
		t.Fatalf("window errors: %v, %v", first.Err, last.Err)
	}
	if !(last.Result.NyquistRate > 2*first.Result.NyquistRate) {
		t.Fatalf("expected rate growth: first %v, last %v", first.Result.NyquistRate, last.Result.NyquistRate)
	}
	if !first.WindowStart.Equal(u.Start) {
		t.Fatalf("first window start = %v, want %v", first.WindowStart, u.Start)
	}
}

func TestMovingWindowErrors(t *testing.T) {
	u := tone(100, 1, 0, 0.1)
	var e Estimator
	if _, err := e.MovingWindow(u, 0, time.Second); err == nil {
		t.Fatal("want error for zero window")
	}
	if _, err := e.MovingWindow(u, time.Hour, 0); err == nil {
		t.Fatal("want error for zero step")
	}
	if _, err := e.MovingWindow(u, 500*time.Hour, time.Hour); !errors.Is(err, ErrTooShort) {
		t.Fatalf("window longer than trace: err = %v, want ErrTooShort", err)
	}
}
