package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDecimate(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	got, err := Decimate(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := Decimate(x, 0); err == nil {
		t.Fatal("want error for factor 0")
	}
}

func TestDecimateLengthProperty(t *testing.T) {
	f := func(n uint8, factor uint8) bool {
		fac := int(factor%16) + 1
		x := make([]float64, int(n))
		got, err := Decimate(x, fac)
		if err != nil {
			return false
		}
		want := (len(x) + fac - 1) / fac
		return len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecimateFilteredAvoidsAliasing(t *testing.T) {
	// A 400 Hz tone decimated 4x from 1 kHz aliases to 100 Hz with plain
	// Decimate; DecimateFiltered must suppress it instead.
	const fs = 1000.0
	x := sineWave(4000, fs, 400, 1)
	plain, err := Decimate(x, 4)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := DecimateFiltered(x, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rmsMid(plain) < 0.5 {
		t.Fatalf("plain decimation should alias with full power, rms=%v", rmsMid(plain))
	}
	if rmsMid(filtered) > 0.05 {
		t.Fatalf("filtered decimation leaked aliased power, rms=%v", rmsMid(filtered))
	}
}

func TestDecimateFilteredFactorOne(t *testing.T) {
	x := []float64{1, 2, 3}
	got, err := DecimateFiltered(x, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("factor-1 decimation changed data at %d", i)
		}
	}
}

func TestUpsampleFFTRecoversBandlimited(t *testing.T) {
	// Sample a 3 Hz tone at 32 Hz (well above Nyquist), upsample 4x, and
	// compare against the directly sampled 128 Hz version.
	const f0 = 3.0
	const n = 64
	coarse := make([]float64, n)
	for i := range coarse {
		coarse[i] = math.Sin(2 * math.Pi * f0 * float64(i) / 32)
	}
	up, err := UpsampleFFT(coarse, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range up {
		want := math.Sin(2 * math.Pi * f0 * float64(i) / 128)
		if math.Abs(up[i]-want) > 1e-9 {
			t.Fatalf("index %d: %v, want %v", i, up[i], want)
		}
	}
}

func TestUpsampleFFTPreservesOriginalSamples(t *testing.T) {
	// With an integer upsampling ratio, every k-th output must equal the
	// corresponding input sample for a band-limited input.
	const n = 32
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*2*float64(i)/n) + 0.3*math.Cos(2*math.Pi*5*float64(i)/n)
	}
	up, err := UpsampleFFT(x, 3*n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(up[3*i]-x[i]) > 1e-9 {
			t.Fatalf("sample %d not preserved: %v vs %v", i, up[3*i], x[i])
		}
	}
}

func TestUpsampleFFTErrors(t *testing.T) {
	if _, err := UpsampleFFT(nil, 10); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := UpsampleFFT([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("want error for shrinking target")
	}
	x := []float64{1, 2, 3}
	same, err := UpsampleFFT(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if same[i] != x[i] {
			t.Fatal("identity upsample should copy input")
		}
	}
}

func BenchmarkUpsampleFFT(b *testing.B) {
	x := sineWave(1024, 1024, 60, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UpsampleFFT(x, 8192); err != nil {
			b.Fatal(err)
		}
	}
}
