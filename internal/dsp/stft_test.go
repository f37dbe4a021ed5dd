package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPlanErrors(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Fatal("zero size should fail")
	}
	if _, err := NewPlan(12); err == nil {
		t.Fatal("non-power-of-two should fail")
	}
	p, _ := NewPlan(8)
	if p.n != 8 {
		t.Fatalf("size = %d", p.n)
	}
	if err := p.PSDInto(make([]float64, 3), make([]complex128, 8), make([]float64, 8), 0, nil); err == nil {
		t.Fatal("PSD buffer mismatch should fail")
	}
	if err := p.PSDInto(make([]float64, 5), make([]complex128, 4), make([]float64, 8), 0, make([]float64, 4)); err == nil {
		t.Fatal("taper length mismatch should fail")
	}
}

func TestPlanPSDMatchesPeriodogram(t *testing.T) {
	const n = 512
	x := sineWave(n, 512, 60, 1.5)
	want, err := Periodogram(x, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, n/2+1)
	scratch := make([]complex128, n)
	if err := p.PSDInto(power, scratch, x, 0, nil); err != nil {
		t.Fatal(err)
	}
	for k := range power {
		if !almostEqual(power[k], want.Power[k], 1e-12+1e-9*want.Power[k]) {
			t.Fatalf("bin %d: %v vs %v", k, power[k], want.Power[k])
		}
	}
}

// Differential property: over random plan sizes 1…4096 and hostile
// signals, the packed half-size transform behind PSDInto must match the
// one-shot FFT periodogram of the same samples to floating-point
// accuracy, with a scratch of either accepted length.
func TestPlanPSDMatchesPeriodogramProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << rng.Intn(13)
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Tones on and off the bin grid, a ramp, an offset and noise;
		// every fifth signal is exactly constant.
		offset := 50 * (rng.Float64() - 0.5)
		slope := rng.Float64() - 0.5
		f1 := float64(1+rng.Intn(n/2+1)) / float64(n)
		f2 := rng.Float64() / 2
		x := make([]float64, n)
		var energy float64
		for i := range x {
			ts := float64(i)
			x[i] = offset
			if seed%5 != 0 {
				x[i] += slope*ts +
					math.Sin(2*math.Pi*f1*ts+0.3) +
					0.5*math.Sin(2*math.Pi*f2*ts+1.1) +
					0.1*(rng.Float64()-0.5)
			}
			energy += x[i] * x[i]
		}
		want, err := Periodogram(x, 1, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scratchLen := n / 2
		if seed%2 == 0 {
			scratchLen = n
		}
		got := make([]float64, n/2+1)
		if err := p.PSDInto(got, make([]complex128, scratchLen), x, 0, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Rounding error spreads across bins in proportion to the
		// signal's mean square, which is what the bins sum to.
		tol := 1e-13 * (1 + energy/float64(n))
		for k := range got {
			if math.Abs(got[k]-want.Power[k]) > tol {
				t.Logf("seed %d: n=%d bin %d: plan %g vs fft %g (tol %g)", seed, n, k, got[k], want.Power[k], tol)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPSDZeroAlloc(t *testing.T) {
	const n = 1024
	x := sineWave(n, 1024, 100, 1)
	p, _ := NewPlan(n)
	power := make([]float64, n/2+1)
	scratch := make([]complex128, n)
	allocs := testing.AllocsPerRun(20, func() {
		if err := p.PSDInto(power, scratch, x, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PSDInto allocates %v per run, want 0", allocs)
	}
}

func TestSTFTChirpTracksFrequency(t *testing.T) {
	// Frequency steps from 20 Hz to 120 Hz halfway: the per-frame peak
	// must follow.
	const fs = 1024.0
	n := 8192
	x := make([]float64, n)
	for i := range x {
		f := 20.0
		if i >= n/2 {
			f = 120
		}
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / fs)
	}
	sg, err := STFT{SegmentLen: 512}.Compute(x, fs)
	if err != nil {
		t.Fatal(err)
	}
	peakAt := func(frame []float64) float64 {
		best := 1
		for k := 2; k < len(frame); k++ {
			if frame[k] > frame[best] {
				best = k
			}
		}
		return sg.Freqs[best]
	}
	first := peakAt(sg.Power[0])
	last := peakAt(sg.Power[len(sg.Power)-1])
	if math.Abs(first-20) > 3 {
		t.Fatalf("first frame peak %v, want 20", first)
	}
	if math.Abs(last-120) > 3 {
		t.Fatalf("last frame peak %v, want 120", last)
	}
	if len(sg.Times) != len(sg.Power) {
		t.Fatal("times/power mismatch")
	}
	if sg.Times[1]-sg.Times[0] != 256/fs {
		t.Fatalf("hop = %v, want %v", sg.Times[1]-sg.Times[0], 256/fs)
	}
}

func TestSTFTErrors(t *testing.T) {
	if _, err := (STFT{}).Compute(nil, 1); err == nil {
		t.Fatal("empty signal should fail")
	}
	if _, err := (STFT{SegmentLen: 100}).Compute(make([]float64, 400), 1); err == nil {
		t.Fatal("non-power-of-two segment should fail")
	}
	if _, err := (STFT{SegmentLen: 512}).Compute(make([]float64, 100), 1); err == nil {
		t.Fatal("segment longer than signal should fail")
	}
	if _, err := (STFT{SegmentLen: 64}).Compute(make([]float64, 128), 0); err == nil {
		t.Fatal("bad rate should fail")
	}
}

func BenchmarkPlanPSD1024(b *testing.B) {
	const n = 1024
	x := sineWave(n, 1024, 100, 1)
	p, _ := NewPlan(n)
	power := make([]float64, n/2+1)
	scratch := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PSDInto(power, scratch, x, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanPSD256Hann is the serving estimator's transform: a
// 256-sample window, Hann-tapered as it is packed, mean removed.
func BenchmarkPlanPSD256Hann(b *testing.B) {
	const n = 256
	x := sineWave(n, 256, 20, 1)
	taper := make([]float64, n)
	for i := range taper {
		taper[i] = Hann{}.Coeff(i, n)
	}
	p, _ := NewPlan(n)
	power := make([]float64, n/2+1)
	scratch := make([]complex128, n/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.PSDInto(power, scratch, x, 0.5, taper); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeriodogramVsPlan1024(b *testing.B) {
	x := sineWave(1024, 1024, 100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Periodogram(x, 1024, nil); err != nil {
			b.Fatal(err)
		}
	}
}
