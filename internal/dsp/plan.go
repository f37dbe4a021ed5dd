package dsp

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
)

// Plan is a reusable FFT execution plan for one transform size: twiddle
// factors and bit-reversal indices are computed once, and PSDInto works
// in caller-provided buffers, so the per-transform cost is allocation-free
// — the hot path for moving-window scans, which transform thousands of
// equal-length windows.
type Plan struct {
	n       int
	rev     []int
	forward [][]complex128 // twiddles per stage
}

// NewPlan builds a plan for n-point transforms. n must be a power of two
// (arbitrary sizes go through the one-shot FFT, which handles Bluestein).
func NewPlan(n int) (*Plan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, errors.New("dsp: plan size must be a positive power of two")
	}
	p := &Plan{n: n}
	p.rev = make([]int, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := make([]complex128, half)
		for k := 0; k < half; k++ {
			tw[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(size)))
		}
		p.forward = append(p.forward, tw)
	}
	return p, nil
}

// butterflies runs the radix-2 stages over x, which must already be in
// bit-reversed order; stages[s] holds the twiddles of the 2^(s+1)-point
// stage, so a prefix of a larger plan's tables transforms a shorter x.
// Stages run in pairs, as radix-2² passes that load four points once and
// do both stages' multiplies and adds on them in the same order, so every
// value is bit for bit what the stages one after the other give.
// Twiddle 0 is exactly 1; with unit set its butterflies skip the multiply,
// which changes at most the sign of a zero part while values stay finite
// (∞·0 is NaN).
func butterflies(x []complex128, stages [][]complex128, unit bool) {
	for ; len(stages) >= 2; stages = stages[2:] {
		tw := stages[0]
		h := len(tw)
		wlo, whi := stages[1][:h], stages[1][h:][:h]
		for blk := x; len(blk) >= 4*h; blk = blk[4*h:] {
			q0, q1, q2, q3 := blk[:h], blk[h:][:h], blk[2*h:][:h], blk[3*h:][:h]
			k := 0
			if unit {
				y0, y1 := q0[0]+q1[0], q0[0]-q1[0]
				y2, y3 := q2[0]+q3[0], q2[0]-q3[0]
				f := y3 * whi[0]
				q0[0], q2[0] = y0+y2, y0-y2
				q1[0], q3[0] = y1+f, y1-f
				k = 1
			}
			for ; k < h; k++ {
				a, b := q0[k], q1[k]*tw[k]
				c, d := q2[k], q3[k]*tw[k]
				y0, y1, y2, y3 := a+b, a-b, c+d, c-d
				e, f := y2*wlo[k], y3*whi[k]
				q0[k], q2[k] = y0+e, y0-e
				q1[k], q3[k] = y1+f, y1-f
			}
		}
	}
	for _, tw := range stages {
		half := len(tw)
		for blk := x; len(blk) >= 2*half; blk = blk[2*half:] {
			lo, hi := blk[:half], blk[half:][:half]
			k := 0
			if unit {
				lo[0], hi[0] = lo[0]+hi[0], lo[0]-hi[0]
				k = 1
			}
			for ; k < len(tw); k++ {
				a := lo[k]
				b := hi[k] * tw[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// PSDInto computes a one-sided PSD of the real window (src[i] − mean) ·
// taper[i] (src of the plan's size n; a nil taper is rectangular) into power
// (length n/2+1), with the same normalization as Periodogram under a
// nil window. Allocation-free. Each bin is bit for bit (a NaN only as
// NaN) what tapering a copy of src and then transforming it with every
// twiddle multiplied gives.
//
// The window is tapered as it is packed into a half-size complex
// transform (even samples in the real parts, odd in the imaginary) that
// runs over the plan's own tables: scratch must hold at least n/2
// entries, and only the first n/2 are used.
func (p *Plan) PSDInto(power []float64, scratch []complex128, src []float64, mean float64, taper []float64) error {
	n, h := p.n, p.n/2
	if len(src) != n || len(scratch) < h || len(power) != h+1 || taper != nil && len(taper) != n {
		return errors.New("dsp: PSDInto buffer length mismatch")
	}
	if n == 1 {
		v := src[0] - mean
		if taper != nil {
			v *= taper[0]
		}
		power[0] = v * v
		return nil
	}
	// A bin that is not finite means an overflow or a non-finite sample,
	// where a skipped multiply could differ: take it again with all of them.
	if !p.psd(power, scratch[:h], src, mean, taper, true) {
		p.psd(power, scratch[:h], src, mean, taper, false)
	}
	return nil
}

// psd is PSDInto's transform; it reports whether every bin is finite.
func (p *Plan) psd(power []float64, z []complex128, src []float64, mean float64, taper []float64, unit bool) bool {
	n, h := p.n, len(z)
	// The h-point bit reversal of m is the n-point one shifted down: m < h
	// has a zero top bit, which reverses into a zero bottom bit.
	for m := range z {
		re, im := src[2*m]-mean, src[2*m+1]-mean
		if taper != nil {
			re, im = re*taper[2*m], im*taper[2*m+1]
		}
		z[p.rev[m]>>1] = complex(re, im)
	}
	last := len(p.forward) - 1
	butterflies(z, p.forward[:last], unit)
	// Unpack: with E and O the transforms of the even and odd samples,
	// Z[k] = E[k] + i·O[k] and conj(Z[h-k]) = E[k] - i·O[k], and the
	// n-point bin is X[k] = E[k] + w^k·O[k] with w = e^{-2πi/n} — the
	// last stage's twiddles.
	norm := 1 / (float64(n) * float64(n))
	re0, im0 := real(z[0]), imag(z[0])
	power[0] = (re0 + im0) * (re0 + im0) * norm
	power[h] = (re0 - im0) * (re0 - im0) * norm
	finite := power[0] <= math.MaxFloat64 && power[h] <= math.MaxFloat64
	tw := p.forward[last]
	for k := 1; k < h; k++ {
		a, b := z[k], cmplx.Conj(z[h-k])
		d := a - b
		x := (a + b) + tw[k]*complex(imag(d), -real(d)) // 2·X[k]
		re, im := real(x), imag(x)
		power[k] = (re*re + im*im) * (norm / 2)
		finite = finite && power[k] <= math.MaxFloat64
	}
	return finite
}
