package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sineWave samples amplitude*sin(2*pi*freq*t) at sampleRate for n samples.
func sineWave(n int, sampleRate, freq, amplitude float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = amplitude * math.Sin(2*math.Pi*freq*float64(i)/sampleRate)
	}
	return x
}

func TestPeriodogramErrors(t *testing.T) {
	if _, err := Periodogram(nil, 1, nil); err != ErrEmptySignal {
		t.Fatalf("want ErrEmptySignal, got %v", err)
	}
	if _, err := Periodogram([]float64{1}, 0, nil); err != ErrBadSampleRate {
		t.Fatalf("want ErrBadSampleRate, got %v", err)
	}
	if _, err := Periodogram([]float64{1}, math.Inf(1), nil); err != ErrBadSampleRate {
		t.Fatalf("want ErrBadSampleRate for +Inf, got %v", err)
	}
}

func TestPeriodogramSinePeak(t *testing.T) {
	const fs = 1000.0
	const n = 1000
	const f0 = 50.0
	s, err := Periodogram(sineWave(n, fs, f0, 1), fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak, bin := s.PeakFrequency(1)
	if !almostEqual(peak, f0, s.BinWidth()/2) {
		t.Fatalf("peak at %v Hz, want %v", peak, f0)
	}
	// A unit sine has mean-square power 0.5, all in one bin here since f0
	// falls exactly on a bin.
	if !almostEqual(s.Power[bin], 0.5, 1e-9) {
		t.Fatalf("peak power = %v, want 0.5", s.Power[bin])
	}
}

func TestPeriodogramParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{16, 99, 256, 1001} {
		x := make([]float64, n)
		var ms float64
		for i := range x {
			x[i] = rng.NormFloat64()
			ms += x[i] * x[i]
		}
		ms /= float64(n)
		s, err := Periodogram(x, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, p := range s.Power {
			total += p
		}
		if !almostEqual(total, ms, 1e-9*(1+ms)) {
			t.Fatalf("n=%d: total PSD power %v != mean square %v", n, total, ms)
		}
	}
}

func TestPeriodogramDCOnly(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	s, err := Periodogram(x, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.Power[0], 25, 1e-9) {
		t.Fatalf("DC power = %v, want 25", s.Power[0])
	}
	for k := 1; k < len(s.Power); k++ {
		if s.Power[k] > 1e-12 {
			t.Fatalf("bin %d has power %v, want 0", k, s.Power[k])
		}
	}
}

func TestPeriodogramNonNegativeProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 256 {
			vals = vals[:256]
		}
		clean := make([]float64, len(vals))
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			clean[i] = math.Mod(v, 1e8)
		}
		s, err := Periodogram(clean, 1, Hann{})
		if err != nil {
			return false
		}
		for _, p := range s.Power {
			if p < 0 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWelchReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	single, err := Periodogram(x, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	welch, err := Welch(x, 1, WelchConfig{SegmentLen: 512, Overlap: 256})
	if err != nil {
		t.Fatal(err)
	}
	// White-noise PSD should be flat; Welch's estimate must have visibly
	// lower relative variance across bins (skip DC).
	if v1, v2 := relVariance(single.Power[1:]), relVariance(welch.Power[1:]); v2 >= v1 {
		t.Fatalf("welch variance %v not below periodogram variance %v", v2, v1)
	}
}

func relVariance(p []float64) float64 {
	var mean float64
	for _, v := range p {
		mean += v
	}
	mean /= float64(len(p))
	var acc float64
	for _, v := range p {
		d := v - mean
		acc += d * d
	}
	return acc / (float64(len(p)) * mean * mean)
}

func TestWelchShortSignalFallsBack(t *testing.T) {
	x := sineWave(64, 64, 4, 1)
	s, err := Welch(x, 64, WelchConfig{SegmentLen: 256, Overlap: 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Power) != 33 {
		t.Fatalf("fallback spectrum has %d bins, want 33", len(s.Power))
	}
}

func TestWelchBadOverlap(t *testing.T) {
	x := sineWave(128, 64, 4, 1)
	if _, err := Welch(x, 64, WelchConfig{SegmentLen: 32, Overlap: 32}); err == nil {
		t.Fatal("expected error for overlap >= segment length")
	}
}

func TestWelchPeakSurvivesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const fs = 100.0
	x := sineWave(8192, fs, 10, 1)
	for i := range x {
		x[i] += 0.5 * rng.NormFloat64()
	}
	s, err := Welch(x, fs, WelchConfig{SegmentLen: 1024, Overlap: 512})
	if err != nil {
		t.Fatal(err)
	}
	peak, _ := s.PeakFrequency(1)
	if math.Abs(peak-10) > 0.2 {
		t.Fatalf("welch peak at %v, want ~10 Hz", peak)
	}
}

func TestCumulativeCutoff(t *testing.T) {
	s := &Spectrum{
		Freqs: []float64{0, 1, 2, 3, 4},
		Power: []float64{100, 50, 30, 15, 5},
	}
	// Excluding DC, total=100; 99% reached at the last bin.
	f, bin := s.CumulativeCutoff(0.99, 1)
	if bin != 4 || f != 4 {
		t.Fatalf("cutoff = (%v, %d), want (4, 4)", f, bin)
	}
	// 80% of 100 = 80, reached at bin 2 (50+30).
	f, bin = s.CumulativeCutoff(0.80, 1)
	if bin != 2 || f != 2 {
		t.Fatalf("cutoff = (%v, %d), want (2, 2)", f, bin)
	}
	// Including DC, total=200, 50% reached at bin 0.
	f, bin = s.CumulativeCutoff(0.50, 0)
	if bin != 0 || f != 0 {
		t.Fatalf("cutoff = (%v, %d), want (0, 0)", f, bin)
	}
}

func TestCumulativeCutoffZeroPower(t *testing.T) {
	s := &Spectrum{Freqs: []float64{0, 1, 2}, Power: []float64{0, 0, 0}}
	f, bin := s.CumulativeCutoff(0.99, 1)
	if bin != 1 || f != 1 {
		t.Fatalf("cutoff on zero spectrum = (%v, %d), want (1, 1)", f, bin)
	}
}

func TestCumulativeCutoffDegenerate(t *testing.T) {
	s := &Spectrum{}
	if _, bin := s.CumulativeCutoff(0.5, 0); bin != -1 {
		t.Fatalf("empty spectrum should return bin -1, got %d", bin)
	}
	s = &Spectrum{Freqs: []float64{0, 1}, Power: []float64{1, 1}}
	if _, bin := s.CumulativeCutoff(0.5, 99); bin != 1 {
		t.Fatalf("out-of-range startBin should clamp, got bin %d", bin)
	}
}

func TestPeakFrequencyDegenerate(t *testing.T) {
	s := &Spectrum{}
	if _, bin := s.PeakFrequency(0); bin != -1 {
		t.Fatalf("empty spectrum peak bin = %d, want -1", bin)
	}
}

func TestWindowedPeriodogramStillNormalized(t *testing.T) {
	// With window-power normalization, a full-scale sine's power estimate
	// should remain ~0.5 under any window.
	const fs, f0, n = 1024.0, 128.0, 4096
	x := sineWave(n, fs, f0, 1)
	for _, w := range []Window{Hann{}} {
		s, err := Periodogram(x, fs, w)
		if err != nil {
			t.Fatal(err)
		}
		// Sum power in a small band around the peak to absorb leakage.
		_, bin := s.PeakFrequency(1)
		var p float64
		for k := bin - 4; k <= bin+4 && k < len(s.Power); k++ {
			if k >= 0 {
				p += s.Power[k]
			}
		}
		if math.Abs(p-0.5) > 0.02 {
			t.Errorf("%s window: band power %v, want ~0.5", w.Name(), p)
		}
	}
}

func BenchmarkPeriodogram4096(b *testing.B) {
	x := sineWave(4096, 1024, 100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Periodogram(x, 1024, Hann{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWelch8192(b *testing.B) {
	x := sineWave(8192, 1024, 100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Welch(x, 1024, WelchConfig{SegmentLen: 1024, Overlap: 512}); err != nil {
			b.Fatal(err)
		}
	}
}
