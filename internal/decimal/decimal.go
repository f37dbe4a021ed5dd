// Package decimal is the tree's one test for short decimals: whether a
// float64 is an integer mantissa over a power of ten, and how far off in
// ulps it is when it is not quite. The store's codecs code such values as
// mantissas and residuals; the streaming estimator holds them as
// mantissas when the residual is zero.
package decimal

import "math"

const (
	// MaxExp is the largest exponent tried: values are m/10^e, e ≤ MaxExp.
	MaxExp = 12
	// MantLimit bounds |v·10^e|, so every mantissa is below 2^51 and a
	// float64 holds any sum of one and a 32-bit offset exactly.
	MantLimit = 1<<51 - 1
	// MaxResid bounds the ulp residual: r in [-MaxResid, MaxResid).
	MaxResid = 64
)

// Pow10 is 10^e for every exponent, exact in float64.
var Pow10 = [MaxExp + 1]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12}

// UlpOrd maps a float64 bit pattern to an integer that moves by one per
// ulp across the whole line, zero included; UlpBits is its inverse. The
// two zeros share ordinal 0, which UlpBits returns as +0 — the reason At
// refuses −0.
func UlpOrd(b uint64) int64 {
	if b>>63 == 0 {
		return int64(b)
	}
	return -int64(b &^ (1 << 63))
}

func UlpBits(o int64) uint64 {
	if o >= 0 {
		return uint64(o)
	}
	return uint64(-o) | 1<<63
}

// At fits v at one exponent (scale = 10^e): the mantissa, the ulp
// residual, and whether float64(m)/scale + r ulps is v exactly. NaN, ±Inf
// and out-of-range products fail the range test; −0 is refused by name.
// With r == 0, float64(m)/scale is v bit for bit.
func At(v, scale float64) (m, r int64, ok bool) {
	s := v * scale
	if !(s > -MantLimit && s < MantLimit) {
		return 0, 0, false
	}
	m = int64(s + math.Copysign(0.5, s))
	vb := math.Float64bits(v)
	r = UlpOrd(vb) - UlpOrd(math.Float64bits(float64(m)/scale))
	return m, r, r >= -MaxResid && r < MaxResid && vb != 1<<63
}
