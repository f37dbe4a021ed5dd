// Package dsp provides the digital signal processing substrate for the
// monitoring reproduction: Fourier transforms, power spectral density
// estimation, window functions, low-pass filtering, resampling and
// quantization. Everything is built on the standard library only.
//
// Conventions: the forward transform is
//
//	X[k] = sum_n x[n] * exp(-2*pi*i*k*n/N)
//
// and the inverse transform divides by N, so IFFTReal(FFTReal(x)) == x. Power
// spectral densities are one-sided unless stated otherwise.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// IFFT returns the inverse discrete Fourier transform of x, normalized by
// 1/N so that it inverts the forward transform up to rounding error.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, true)
	return out
}

// FFTReal transforms a real-valued signal and returns the full complex
// spectrum of length len(x). Callers that only need the non-redundant half
// can slice the result to len(x)/2+1 bins.
func FFTReal(x []float64) []complex128 {
	buf := make([]complex128, len(x))
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	fftInPlace(buf, false)
	return buf
}

// IFFTReal inverts a spectrum that is known to correspond to a real signal
// and returns only the real parts. Imaginary residue from rounding is
// discarded.
func IFFTReal(spec []complex128) []float64 {
	buf := IFFT(spec)
	out := make([]float64, len(buf))
	for i, v := range buf {
		out[i] = real(v)
	}
	return out
}

// fftInPlace computes the DFT of x in place. When inverse is true it
// computes the inverse transform including the 1/N normalization.
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		fftRadix2(x, inverse)
	} else {
		fftBluestein(x, inverse)
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// fftRadix2 is the iterative radix-2 Cooley-Tukey FFT. len(x) must be a
// power of two. No normalization is applied.
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		// wBase = exp(i*step); recurrence keeps the inner loop free of
		// trig calls while periodic re-seeding bounds the error.
		wBase := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wBase
			}
		}
	}
}

// fftBluestein computes an arbitrary-length DFT as a convolution with a
// chirp, evaluated with power-of-two FFTs (chirp-z transform).
func fftBluestein(x []complex128, inverse bool) {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// chirp[k] = exp(sign*i*pi*k^2/n); k^2 is reduced mod 2n to keep the
	// argument small, preserving precision for long inputs.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (uint64(k) * uint64(k)) % uint64(2*n)
		chirp[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	a := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	b := make([]complex128, m)
	b[0] = cmplx.Conj(chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(chirp[k])
		b[k] = c
		b[m-k] = c
	}
	fftRadix2(a, false)
	fftRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	// Unnormalized inverse radix-2 transform: conj, forward, conj, /m.
	for i := range a {
		a[i] = cmplx.Conj(a[i])
	}
	fftRadix2(a, false)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = cmplx.Conj(a[k]) * scale * chirp[k]
	}
}
