package dsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDetrendLinearRemovesRamp(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 3 + 0.5*float64(i)
	}
	out := DetrendLinear(x)
	for i, v := range out {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("residual %v at %d, want 0", v, i)
		}
	}
}

func TestDetrendLinearPreservesTone(t *testing.T) {
	// Ramp + tone: after detrending, the tone must survive intact.
	n := 512
	x := make([]float64, n)
	for i := range x {
		x[i] = 10 - 0.02*float64(i) + math.Sin(2*math.Pi*8*float64(i)/float64(n))
	}
	out := DetrendLinear(x)
	spec, err := Periodogram(out, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak, bin := spec.PeakFrequency(1)
	if math.Abs(peak-8.0/float64(n)) > 1e-9 {
		t.Fatalf("peak at %v", peak)
	}
	if !almostEqual(spec.Power[bin], 0.5, 0.01) {
		t.Fatalf("tone power %v, want ~0.5", spec.Power[bin])
	}
}

func TestDetrendLinearReducesLeakage(t *testing.T) {
	// A sub-window-period component looks like a ramp; linear detrending
	// must cut the high-frequency leakage dramatically vs mean removal.
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 0.3 * float64(i) / float64(n)) // 0.3 cycles in window
	}
	mean := DetrendLinear(x) // compare against simple mean removal
	var m float64
	for _, v := range x {
		m += v
	}
	m /= float64(n)
	centered := make([]float64, n)
	for i, v := range x {
		centered[i] = v - m
	}
	sLin, _ := Periodogram(mean, 1, nil)
	sMean, _ := Periodogram(centered, 1, nil)
	tailLin := tailPower(sLin, 20)
	tailMean := tailPower(sMean, 20)
	if tailLin >= tailMean/5 {
		t.Fatalf("linear detrend tail %v not well below mean-removal tail %v", tailLin, tailMean)
	}
}

func tailPower(s *Spectrum, fromBin int) float64 {
	var acc float64
	for k := fromBin; k < len(s.Power); k++ {
		acc += s.Power[k]
	}
	return acc
}

func TestDetrendLinearDegenerate(t *testing.T) {
	if out := DetrendLinear(nil); len(out) != 0 {
		t.Fatal("nil input should give empty output")
	}
	out := DetrendLinear([]float64{5})
	if out[0] != 0 {
		t.Fatalf("single sample residual %v", out[0])
	}
	out = DetrendLinear([]float64{7, 7, 7})
	for _, v := range out {
		if math.Abs(v) > 1e-12 {
			t.Fatal("constant should detrend to zero")
		}
	}
}

func TestDetrendLinearZeroMeanProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			clean = append(clean, math.Mod(v, 1e8))
		}
		if len(clean) < 2 {
			return true
		}
		out := DetrendLinear(clean)
		var sum, scale float64
		for i, v := range out {
			sum += v
			if a := math.Abs(clean[i]); a > scale {
				scale = a
			}
		}
		if scale == 0 {
			scale = 1
		}
		return math.Abs(sum/float64(len(out))) < 1e-7*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianFilterKillsImpulses(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 10
	}
	x[20], x[50], x[80] = 1000, -1000, 500 // glitches
	out := MedianFilter(x, 5)
	for i, v := range out {
		if v != 10 {
			t.Fatalf("index %d: %v, want 10", i, v)
		}
	}
}

func TestMedianFilterPreservesStep(t *testing.T) {
	x := []float64{0, 0, 0, 0, 0, 10, 10, 10, 10, 10}
	out := MedianFilter(x, 3)
	// A median filter preserves step edges (no smearing).
	for i := 0; i < 5; i++ {
		if out[i] != 0 {
			t.Fatalf("pre-step index %d: %v", i, out[i])
		}
	}
	for i := 5; i < 10; i++ {
		if out[i] != 10 {
			t.Fatalf("post-step index %d: %v", i, out[i])
		}
	}
}

func TestMedianFilterWindowHandling(t *testing.T) {
	x := []float64{3, 1, 2}
	// window <1 clamps to 1 (identity); even window is made odd.
	out := MedianFilter(x, 0)
	for i := range x {
		if out[i] != x[i] {
			t.Fatal("window 1 must be identity")
		}
	}
	if out := MedianFilter(nil, 3); len(out) != 0 {
		t.Fatal("empty input")
	}
	out = MedianFilter(x, 2) // becomes 3
	if out[1] != 2 {
		t.Fatalf("median of [3 1 2] = %v, want 2", out[1])
	}
}

func TestMedianFilterMatchesSortDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	const w = 7
	out := MedianFilter(x, w)
	for i := range x {
		lo, hi := i-w/2, i+w/2+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(x) {
			hi = len(x)
		}
		ref := append([]float64(nil), x[lo:hi]...)
		sort.Float64s(ref)
		var want float64
		if len(ref)%2 == 1 {
			want = ref[len(ref)/2]
		} else {
			want = (ref[len(ref)/2-1] + ref[len(ref)/2]) / 2
		}
		if math.Abs(out[i]-want) > 1e-12 {
			t.Fatalf("index %d: %v, want %v", i, out[i], want)
		}
	}
}

func BenchmarkMedianFilter(b *testing.B) {
	x := sineWave(4096, 1024, 60, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MedianFilter(x, 9)
	}
}
