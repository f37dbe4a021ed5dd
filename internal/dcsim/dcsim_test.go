package dcsim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/series"
)

var testStart = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range AllMetrics() {
		name := m.String()
		if name == "" || name == "unknown" {
			t.Fatalf("metric %d has no name", m)
		}
		if seen[name] {
			t.Fatalf("duplicate metric name %q", name)
		}
		seen[name] = true
	}
	if len(seen) != 14 {
		t.Fatalf("want 14 metric families, got %d", len(seen))
	}
	if Metric(99).String() != "unknown" {
		t.Fatal("out-of-range metric should be unknown")
	}
	if ProfileFor(Metric(-1)).Name != "unknown" {
		t.Fatal("out-of-range profile should be unknown")
	}
}

func TestProfilesSane(t *testing.T) {
	for _, m := range AllMetrics() {
		p := ProfileFor(m)
		if !(p.NyquistLo > 0) || !(p.NyquistHi > p.NyquistLo) {
			t.Errorf("%s: bad Nyquist range [%v, %v]", p.Name, p.NyquistLo, p.NyquistHi)
		}
		if len(p.PollIntervals) == 0 {
			t.Errorf("%s: no poll intervals", p.Name)
		}
		if p.Swing <= 0 {
			t.Errorf("%s: non-positive swing", p.Name)
		}
		// Noise and quantization must stay below 1 % of the signal power
		// or the 99 % energy cut-off runs past the band edge into the
		// noise floor (DESIGN.md choice 1).
		sigPower := p.Swing * p.Swing / 20
		noisePower := p.NoiseAmp*p.NoiseAmp/3 + p.QuantStep*p.QuantStep/12
		if noisePower > 0.01*sigPower {
			t.Errorf("%s: noise power %v above 1%% of signal power %v", p.Name, noisePower, sigPower)
		}
	}
}

func TestBandLimitedIsBandLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b, err := NewBandLimited(rng, 0.01, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Sample at 10x the band limit and verify the PSD is empty above it.
	const fs = 0.1
	n := 8192
	x := make([]float64, n)
	for i := range x {
		x[i] = b.At(float64(i) / fs)
	}
	// A Hann window keeps spectral leakage from the non-bin-aligned
	// components out of the out-of-band measurement.
	spec, err := dsp.Periodogram(x, fs, dsp.Hann{})
	if err != nil {
		t.Fatal(err)
	}
	var inBand, outBand float64
	for k := 1; k < len(spec.Freqs); k++ {
		if spec.Freqs[k] <= 0.012 {
			inBand += spec.Power[k]
		} else {
			outBand += spec.Power[k]
		}
	}
	if outBand > 1e-5*inBand {
		t.Fatalf("energy above band limit: %v vs %v in band", outBand, inBand)
	}
}

func TestBandLimitedEdgeComponentVisible(t *testing.T) {
	// The component at the band edge must carry enough energy for a 99%
	// cut-off to include it.
	rng := rand.New(rand.NewSource(7))
	b, err := NewBandLimited(rng, 0.02, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	var edgePower, total float64
	for _, c := range b.comps {
		p := c.amp * c.amp
		total += p
		if c.freq == 0.02 {
			edgePower += p
		}
	}
	if edgePower < 0.02*total {
		t.Fatalf("edge component carries %v of %v (<2%%)", edgePower, total)
	}
}

func TestBandLimitedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewBandLimited(rng, 0, 1, 5); err == nil {
		t.Fatal("zero band limit should fail")
	}
	b, err := NewBandLimited(rng, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.comps) != 1 {
		t.Fatalf("nComps<1 should clamp to 1, got %d", len(b.comps))
	}
}

func TestWhiteNoiseDeterministicAndBounded(t *testing.T) {
	for i := 0; i < 1000; i++ {
		tm := float64(i) * 1.7
		a := whiteNoise(42, tm)
		b := whiteNoise(42, tm)
		if a != b {
			t.Fatal("noise not deterministic")
		}
		if a < -1 || a > 1 {
			t.Fatalf("noise out of range: %v", a)
		}
		if whiteNoise(43, tm) == a && i > 10 {
			t.Fatal("different seeds should decorrelate")
		}
	}
}

func TestWhiteNoiseZeroMeanProperty(t *testing.T) {
	f := func(seed uint64) bool {
		var sum float64
		for i := 0; i < 2000; i++ {
			sum += whiteNoise(seed, float64(i)*0.37)
		}
		return math.Abs(sum/2000) < 0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBurstWindowing(t *testing.T) {
	b := Burst{Start: 100, Duration: 50, Freq: 2, Amp: 3}
	if b.At(99.9) != 0 || b.At(150) != 0 {
		t.Fatal("burst leaked outside its window")
	}
	// Envelope peaks mid-burst.
	var maxAbs float64
	for tm := 100.0; tm < 150; tm += 0.01 {
		if a := math.Abs(b.At(tm)); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs < 2.5 || maxAbs > 3.01 {
		t.Fatalf("burst peak %v, want ~3", maxAbs)
	}
	if (Burst{Duration: 0}).At(0) != 0 {
		t.Fatal("zero-duration burst should be silent")
	}
}

func TestFlapTrain(t *testing.T) {
	bursts := FlapTrain(100, 1000, 50, 3500, 0.1, 2)
	if len(bursts) != 4 {
		t.Fatalf("bursts = %d, want 4 (at 100, 1100, 2100, 3100)", len(bursts))
	}
	for i, b := range bursts {
		if b.Start != 100+float64(i)*1000 || b.Duration != 50 {
			t.Fatalf("burst %d = %+v", i, b)
		}
	}
	if got := FlapTrain(0, 0, 10, 100, 1, 1); got != nil {
		t.Fatal("zero period should yield no bursts")
	}
	if got := FlapTrain(0, 10, 0, 100, 1, 1); got != nil {
		t.Fatal("zero burst length should yield no bursts")
	}
}

func TestDeviceSampleQuantized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, err := NewDevice("test", Temperature, 1e-4, 300*time.Second, rng, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v := d.At(float64(i) * 301.7)
		// Temperature quantum is 0.5.
		if r := math.Mod(v, 0.5); math.Abs(r) > 1e-9 && math.Abs(r-0.5) > 1e-9 {
			t.Fatalf("sample %v not on 0.5 grid", v)
		}
	}
	// Harmonic quantization rounds the band limit down to a whole number
	// of diurnal harmonics: floor(1e-4 * 86400) = 8 cycles/day.
	if want := 2 * 8 * DiurnalFreq; math.Abs(d.TrueNyquist-want) > 1e-12 {
		t.Fatalf("TrueNyquist = %v, want %v", d.TrueNyquist, want)
	}
	if got := d.PollRate(); math.Abs(got-1.0/300) > 1e-12 {
		t.Fatalf("PollRate = %v", got)
	}
	if d.PollRate() <= d.TrueNyquist {
		t.Fatal("1/300 Hz poll of 2e-4 Hz Nyquist device is oversampled")
	}
}

func TestDeviceTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d, err := NewDevice("test", LinkUtil, 1e-3, 30*time.Second, rng, 7)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Trace(testStart, 0, time.Hour)
	if u.Len() != 120 {
		t.Fatalf("trace length %d, want 120", u.Len())
	}
	if u.Interval != 30*time.Second {
		t.Fatalf("interval = %v", u.Interval)
	}
	// Deterministic: same call yields the same trace.
	u2 := d.Trace(testStart, 0, time.Hour)
	for i := range u.Values {
		if u.Values[i] != u2.Values[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestDeviceTraceAtRate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d, err := NewDevice("test", CPUUtil5pct, 1e-3, 30*time.Second, rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	u, err := d.TraceAtRate(testStart, 0, 10*time.Minute, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 300 {
		t.Fatalf("len = %d, want 300", u.Len())
	}
	if _, err := d.TraceAtRate(testStart, 0, time.Minute, 0); err == nil {
		t.Fatal("zero rate should fail")
	}
}

func TestEstimatorRecoversTrueNyquist(t *testing.T) {
	// The paper's pipeline end-to-end on a simulated device: a day of
	// production polls, Nyquist estimate must be within a factor ~1.5 of
	// ground truth (leakage and noise allow slight inflation, the energy
	// cut-off slight deflation).
	rng := rand.New(rand.NewSource(11))
	d, err := NewDevice("test", Temperature, 2.5e-4, 60*time.Second, rng, 13)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Trace(testStart, 0, 24*time.Hour)
	var e core.Estimator
	res, err := e.Estimate(u)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.NyquistRate / d.TrueNyquist
	if ratio < 0.4 || ratio > 1.6 {
		t.Fatalf("estimated %v vs true %v (ratio %v)", res.NyquistRate, d.TrueNyquist, ratio)
	}
}

func TestCounterTraceMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d, err := NewDevice("sw1/drops", UnicastDrops, 3e-4, 30*time.Second, rng, 77)
	if err != nil {
		t.Fatal(err)
	}
	u := d.CounterTrace(testStart, 0, 6*time.Hour)
	if u.Len() != 720 {
		t.Fatalf("len = %d", u.Len())
	}
	for i := 1; i < u.Len(); i++ {
		if u.Values[i] < u.Values[i-1] {
			t.Fatalf("counter decreased at %d: %v -> %v", i, u.Values[i-1], u.Values[i])
		}
	}
	// Whole events only.
	for _, v := range u.Values {
		if v != math.Floor(v) {
			t.Fatalf("fractional count %v", v)
		}
	}
}

func TestRateFromCounterRecoversNyquist(t *testing.T) {
	// Counter export -> difference -> estimate: the pipeline the paper
	// applies to drop/discard metrics must still find the rate signal's
	// Nyquist rate.
	rng := rand.New(rand.NewSource(14))
	d, err := NewDevice("sw2/discards", OutboundDiscards, 4e-4, 30*time.Second, rng, 78)
	if err != nil {
		t.Fatal(err)
	}
	counter := d.CounterTrace(testStart, 0, 24*time.Hour)
	rate, err := RateFromCounter(counter)
	if err != nil {
		t.Fatal(err)
	}
	var e core.Estimator
	res, err := e.Estimate(rate)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.NyquistRate / d.TrueNyquist
	if ratio < 0.3 || ratio > 2.5 {
		t.Fatalf("counter-path estimate %v vs true %v (ratio %v)", res.NyquistRate, d.TrueNyquist, ratio)
	}
}

func TestRateFromCounterErrors(t *testing.T) {
	if _, err := RateFromCounter(nil); err == nil {
		t.Fatal("nil trace should fail")
	}
	u := &series.Uniform{Interval: time.Second, Values: []float64{1}}
	if _, err := RateFromCounter(u); err == nil {
		t.Fatal("single sample should fail")
	}
}

func TestFleetDefaults(t *testing.T) {
	f, err := NewFleet(FleetConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1613 {
		t.Fatalf("fleet size %d, want 1613", f.Len())
	}
	by := map[Metric][]*Device{}
	for _, d := range f.Devices {
		by[d.Metric] = append(by[d.Metric], d)
	}
	if len(by) != 14 {
		t.Fatalf("metric families %d, want 14", len(by))
	}
	for m, devs := range by {
		if len(devs) < 1613/14 {
			t.Fatalf("%v has only %d devices", m, len(devs))
		}
	}
	// Ground truth oversampling should be near the configured 89 %.
	n := 0
	for _, d := range f.Devices {
		if d.PollRate() > d.TrueNyquist {
			n++
		}
	}
	frac := float64(n) / float64(len(f.Devices))
	if frac < 0.84 || frac > 0.94 {
		t.Fatalf("oversampled fraction %v, want ~0.89", frac)
	}
}

func TestFleetDeterministic(t *testing.T) {
	a, err := NewFleet(FleetConfig{Seed: 7, TotalPairs: 56})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFleet(FleetConfig{Seed: 7, TotalPairs: 56})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Devices {
		da, db := a.Devices[i], b.Devices[i]
		if da.ID != db.ID || da.TrueNyquist != db.TrueNyquist || da.PollInterval != db.PollInterval {
			t.Fatalf("device %d differs between same-seed fleets", i)
		}
		if da.At(1234.5) != db.At(1234.5) {
			t.Fatalf("device %d signals differ", i)
		}
	}
	c, err := NewFleet(FleetConfig{Seed: 8, TotalPairs: 56})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Devices {
		if a.Devices[i].TrueNyquist == c.Devices[i].TrueNyquist {
			same++
		}
	}
	if same == len(a.Devices) {
		t.Fatal("different seeds produced identical fleets")
	}
}

func TestFleetRespectsProfileRanges(t *testing.T) {
	f, err := NewFleet(FleetConfig{Seed: 3, TotalPairs: 280, UndersampledFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Devices {
		p := d.Profile()
		if d.TrueNyquist < p.NyquistLo*0.99 || d.TrueNyquist > p.NyquistHi*1.01 {
			t.Fatalf("%s: Nyquist %v outside [%v, %v]", d.ID, d.TrueNyquist, p.NyquistLo, p.NyquistHi)
		}
	}
}

func TestFleetCustomSize(t *testing.T) {
	f, err := NewFleet(FleetConfig{Seed: 2, TotalPairs: 30})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 30 {
		t.Fatalf("fleet size %d, want 30", f.Len())
	}
}

func TestDeviceBurstRaisesHighFrequencyContent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d, err := NewDevice("test", FCSErrors, 1e-3, 30*time.Second, rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewDualRateDetector(core.DualRateConfig{})
	// Clean period: no aliasing at a slow rate safely above 2*bandlimit.
	v1, _, err := det.Probe(d, 0, 3600, 0.037, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Aliased {
		t.Fatalf("clean device flagged aliased (score %v)", v1.Score)
	}
	// Burst at 0.008 Hz inside the probe window: 0.01 Hz sampling
	// (Nyquist 0.005) folds it to 0.002 Hz while the 0.037 Hz sampling
	// captures it faithfully, so the spectra diverge. (A frequency that
	// is an exact multiple of the slow rate would fold to DC and evade
	// the detector — the known blind spot behind the paper's non-integer
	// ratio requirement.)
	d.AddBurst(Burst{Start: 4000, Duration: 5000, Freq: 0.008, Amp: 40})
	v2, _, err := det.Probe(d, 3800, 7200, 0.037, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Aliased {
		t.Fatalf("burst not detected (score %v)", v2.Score)
	}
}

func TestTraceAtRateTooFast(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := NewDevice("x", LinkUtil, 1e-3, time.Second, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TraceAtRate(testStart, 0, time.Second, 1e12); !errors.Is(err, errTooFast(err)) && err == nil {
		t.Fatal("want error for unrepresentable rate")
	}
}

// errTooFast lets the test above assert on any non-nil error identity.
func errTooFast(err error) error { return err }
