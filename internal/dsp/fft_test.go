package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func complexAlmostEqual(a, b complex128, eps float64) bool {
	return cmplx.Abs(a-b) <= eps
}

// fft is the forward transform of a copy of x, IFFT's twin: the tests
// reach the engine's forward direction on complex input through it.
func fft(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	fftInPlace(out, false)
	return out
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := fft(nil); len(got) != 0 {
		t.Fatalf("fft(nil) = %v, want empty", got)
	}
	got := fft([]complex128{3 + 4i})
	if len(got) != 1 || !complexAlmostEqual(got[0], 3+4i, tol) {
		t.Fatalf("FFT of single sample = %v, want [3+4i]", got)
	}
}

func TestFFTKnownDFT(t *testing.T) {
	// DFT of [1, 0, 0, 0] is all-ones.
	got := fft([]complex128{1, 0, 0, 0})
	for i, v := range got {
		if !complexAlmostEqual(v, 1, tol) {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
	// DFT of a constant is N at DC, 0 elsewhere.
	got = fft([]complex128{2, 2, 2, 2})
	if !complexAlmostEqual(got[0], 8, tol) {
		t.Fatalf("DC bin = %v, want 8", got[0])
	}
	for i := 1; i < 4; i++ {
		if !complexAlmostEqual(got[i], 0, tol) {
			t.Fatalf("bin %d = %v, want 0", i, got[i])
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 5, 8, 12, 16, 17, 31, 32, 100} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := fft(x)
		for k := range want {
			if !complexAlmostEqual(got[k], want[k], 1e-8*float64(n)) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = acc
	}
	return out
}

func TestFFTSineSinglePeak(t *testing.T) {
	const n = 256
	const bin = 19
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*bin*float64(i)/n), 0)
	}
	spec := fft(x)
	// A real sine concentrates magnitude n/2 at bins +-bin.
	if got := cmplx.Abs(spec[bin]); !almostEqual(got, n/2, 1e-6) {
		t.Fatalf("peak magnitude = %v, want %v", got, n/2)
	}
	if got := cmplx.Abs(spec[n-bin]); !almostEqual(got, n/2, 1e-6) {
		t.Fatalf("mirror magnitude = %v, want %v", got, n/2)
	}
	for k := range spec {
		if k == bin || k == n-bin {
			continue
		}
		if cmplx.Abs(spec[k]) > 1e-6 {
			t.Fatalf("leakage at bin %d: %v", k, spec[k])
		}
	}
}

func TestIFFTRoundTripProperty(t *testing.T) {
	f := func(re, im []float64) bool {
		n := len(re)
		if len(im) < n {
			n = len(im)
		}
		if n == 0 {
			return true
		}
		if n > 512 {
			n = 512
		}
		x := make([]complex128, n)
		var scale float64
		for i := 0; i < n; i++ {
			// Bound magnitudes so the tolerance is meaningful.
			x[i] = complex(math.Mod(re[i], 1e6), math.Mod(im[i], 1e6))
			scale = math.Max(scale, cmplx.Abs(x[i]))
		}
		if scale == 0 {
			scale = 1
		}
		y := IFFT(fft(x))
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-7*scale*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 300 {
			vals = vals[:300]
		}
		x := make([]complex128, len(vals))
		var timeEnergy float64
		for i, v := range vals {
			v = math.Mod(v, 1e6)
			x[i] = complex(v, 0)
			timeEnergy += v * v
		}
		spec := fft(x)
		var freqEnergy float64
		for _, s := range spec {
			freqEnergy += real(s)*real(s) + imag(s)*imag(s)
		}
		freqEnergy /= float64(len(vals))
		return almostEqual(timeEnergy, freqEnergy, 1e-6*(1+timeEnergy))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(120)
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum[i] = 2*a[i] + 3*b[i]
		}
		fa, fb, fsum := fft(a), fft(b), fft(sum)
		for k := 0; k < n; k++ {
			want := 2*fa[k] + 3*fb[k]
			if !complexAlmostEqual(fsum[k], want, 1e-7*float64(n)) {
				t.Fatalf("n=%d bin %d: linearity violated: %v vs %v", n, k, fsum[k], want)
			}
		}
	}
}

func TestFFTRealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 7, 64, 129} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := IFFTReal(FFTReal(x))
		for i := range x {
			if !almostEqual(x[i], y[i], 1e-8) {
				t.Fatalf("n=%d index %d: %v != %v", n, i, x[i], y[i])
			}
		}
	}
}

func TestFFTRealConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{8, 15, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		spec := FFTReal(x)
		for k := 1; k < n; k++ {
			want := cmplx.Conj(spec[n-k])
			if !complexAlmostEqual(spec[k], want, 1e-8) {
				t.Fatalf("n=%d bin %d not conjugate-symmetric: %v vs %v", n, k, spec[k], want)
			}
		}
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5}
	orig := append([]complex128(nil), x...)
	IFFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("input mutated at %d: %v != %v", i, x[i], orig[i])
		}
	}
}

func BenchmarkFFTPow2_4096(b *testing.B) {
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft(x)
	}
}

func BenchmarkFFTBluestein_4095(b *testing.B) {
	x := make([]complex128, 4095)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft(x)
	}
}
