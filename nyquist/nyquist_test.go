package nyquist_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/nyquist"
)

var t0 = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

// TestPublicAPIEndToEnd walks the full workflow advertised in the package
// doc: build a trace, estimate its Nyquist rate, downsample, reconstruct,
// and verify fidelity — all through the public API only.
func TestPublicAPIEndToEnd(t *testing.T) {
	// A day of 1-minute polls of a signal with 12 cycles/day content.
	const n = 1440
	vals := make([]float64, n)
	for i := range vals {
		ts := float64(i) * 60
		vals[i] = 50 + 5*math.Sin(2*math.Pi*12/86400*ts)
	}
	u, err := nyquist.NewUniform(t0, time.Minute, vals)
	if err != nil {
		t.Fatal(err)
	}

	var est nyquist.Estimator
	res, err := est.Estimate(u)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 12.0 / 86400
	if math.Abs(res.NyquistRate-want) > 3*res.Spectrum.BinWidth() {
		t.Fatalf("NyquistRate = %v, want ~%v", res.NyquistRate, want)
	}
	if !res.Oversampled() {
		t.Fatal("1-minute polling of a 12-cycle/day signal is oversampled")
	}

	rec, fid, err := nyquist.RoundTrip(u, 1.2*res.NyquistRate, nyquist.ReconstructConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Values) != n {
		t.Fatalf("reconstruction length %d", len(rec.Values))
	}
	// FFT reconstruction of a non-periodic window rings at the edges;
	// overall error stays small and the interior is essentially exact.
	if fid.NRMSE > 0.05 {
		t.Fatalf("NRMSE = %v", fid.NRMSE)
	}
	interior, err := nyquist.CompareSignals(vals[n/10:9*n/10], rec.Values[n/10:9*n/10])
	if err != nil {
		t.Fatal(err)
	}
	if interior.NRMSE > 0.02 {
		t.Fatalf("interior NRMSE = %v", interior.NRMSE)
	}
	if fid.CostReduction() < 10 {
		t.Fatalf("cost reduction = %v", fid.CostReduction())
	}
}

func TestPublicIrregularSeriesWorkflow(t *testing.T) {
	s := nyquist.NewSeries(nil)
	for i := 0; i < 600; i++ {
		jitter := time.Duration(i%7) * 250 * time.Millisecond
		ts := t0.Add(time.Duration(i)*30*time.Second + jitter)
		s.AppendValue(ts, math.Sin(2*math.Pi*float64(i)/120))
	}
	u, err := s.Regularize(30*time.Second, nyquist.NearestNeighbor)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() < 590 {
		t.Fatalf("regularized length %d", u.Len())
	}
	var est nyquist.Estimator
	if _, err := est.EstimateSeries(s); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAliasedSentinel(t *testing.T) {
	vals := make([]float64, 512)
	state := uint64(1)
	for i := range vals {
		state = state*6364136223846793005 + 1442695040888963407
		vals[i] = float64(int64(state)) / math.MaxInt64
	}
	u, err := nyquist.NewUniform(t0, time.Second, vals)
	if err != nil {
		t.Fatal(err)
	}
	var est nyquist.Estimator
	res, err := est.Estimate(u)
	if !errors.Is(err, nyquist.ErrAliased) {
		t.Fatalf("white noise err = %v, want ErrAliased", err)
	}
	if res == nil || !res.Aliased {
		t.Fatal("aliased result not populated")
	}
}

func TestPublicDualRate(t *testing.T) {
	sig := nyquist.SamplerFunc(func(ts float64) float64 {
		return math.Sin(2*math.Pi*0.5*ts) + math.Sin(2*math.Pi*7*ts)
	})
	det := nyquist.NewDualRateDetector(nyquist.DualRateConfig{})
	slow := nyquist.SuggestSlowRate(11)
	if err := nyquist.ValidateRatePair(11, slow); err != nil {
		t.Fatal(err)
	}
	v, _, err := det.Probe(sig, 0, 60, 37, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Aliased {
		t.Fatalf("7 Hz content vs 11 Hz sampling must alias (score %v)", v.Score)
	}
}

func TestPublicAdaptiveSampler(t *testing.T) {
	sig := nyquist.SamplerFunc(func(ts float64) float64 {
		return math.Sin(2 * math.Pi * 0.5 * ts)
	})
	a, err := nyquist.NewAdaptiveSampler(nyquist.AdaptiveConfig{
		InitialRate:   0.3,
		MaxRate:       32,
		EpochDuration: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := a.Run(sig, 0, 120*20)
	if err != nil {
		t.Fatal(err)
	}
	if run.ConvergedRate() < 1 || run.ConvergedRate() > 8 {
		t.Fatalf("converged rate %v, want ~2 (2x headroom on 1 Hz Nyquist)", run.ConvergedRate())
	}
	if run.Epochs[0].Mode != nyquist.Probing {
		t.Fatal("loop must start probing")
	}
}

func TestPublicSTFT(t *testing.T) {
	x := make([]float64, 2048)
	for i := range x {
		f := 10.0
		if i >= 1024 {
			f = 60
		}
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / 256)
	}
	sg, err := (nyquist.STFT{SegmentLen: 256}).Compute(x, 256)
	if err != nil {
		t.Fatal(err)
	}
	cut := sg.FrameCutoff(0.99)
	if cut[0] > 20 || cut[len(cut)-1] < 50 {
		t.Fatalf("cutoff trace %v .. %v does not follow the chirp", cut[0], cut[len(cut)-1])
	}
}

func TestPublicQuantizer(t *testing.T) {
	q, err := nyquist.NewQuantizer(0.5)
	if err != nil {
		t.Fatal(err)
	}
	got := q.Apply([]float64{0.2, 0.3, 0.76})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quantized = %v, want %v", got, want)
		}
	}
	if step := nyquist.EstimateStep(got); step != 0.5 {
		t.Fatalf("EstimateStep = %v", step)
	}
}
