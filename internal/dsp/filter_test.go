package dsp

import (
	"math"
	"testing"
)

func TestLowPassFFTRemovesHighTone(t *testing.T) {
	const fs = 1000.0
	const n = 1000
	low := sineWave(n, fs, 10, 1)
	high := sineWave(n, fs, 200, 1)
	mixed := make([]float64, n)
	for i := range mixed {
		mixed[i] = low[i] + high[i]
	}
	got, err := LowPassFFT(mixed, fs, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-low[i]) > 1e-6 {
			t.Fatalf("index %d: filtered %v, want %v", i, got[i], low[i])
		}
	}
}

func TestLowPassFFTPassthrough(t *testing.T) {
	x := sineWave(512, 512, 100, 1)
	got, err := LowPassFFT(x, 512, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEqual(got[i], x[i], 1e-9) {
			t.Fatalf("index %d changed: %v vs %v", i, got[i], x[i])
		}
	}
}

func TestLowPassFFTPreservesDC(t *testing.T) {
	x := make([]float64, 128)
	for i := range x {
		x[i] = 7
	}
	got, err := LowPassFFT(x, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !almostEqual(got[i], 7, 1e-9) {
			t.Fatalf("DC not preserved at %d: %v", i, got[i])
		}
	}
}

func TestLowPassFFTErrors(t *testing.T) {
	if _, err := LowPassFFT(nil, 1, 1); err == nil {
		t.Fatal("want error for empty signal")
	}
	if _, err := LowPassFFT([]float64{1}, 0, 1); err == nil {
		t.Fatal("want error for zero sample rate")
	}
	if _, err := LowPassFFT([]float64{1}, 1, -1); err == nil {
		t.Fatal("want error for negative cutoff")
	}
}

// rmsMid returns the RMS of the middle half of x, avoiding edge transients.
func rmsMid(x []float64) float64 {
	lo, hi := len(x)/4, 3*len(x)/4
	var acc float64
	for _, v := range x[lo:hi] {
		acc += v * v
	}
	return math.Sqrt(acc / float64(hi-lo))
}
