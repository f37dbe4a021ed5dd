package dsp

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
)

// Plan is a reusable FFT execution plan for one transform size: twiddle
// factors and bit-reversal indices are computed once, and Execute works
// in caller-provided buffers, so the per-transform cost is allocation-free
// — the hot path for moving-window scans and Welch averaging, which
// transform thousands of equal-length segments.
type Plan struct {
	n       int
	rev     []int
	forward [][]complex128 // twiddles per stage
	inverse [][]complex128
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
	for _, inverse := range []bool{false, true} {
		sign := -1.0
		if inverse {
			sign = 1.0
		}
		var stages [][]complex128
		for size := 2; size <= n; size <<= 1 {
			half := size >> 1
			tw := make([]complex128, half)
			for k := 0; k < half; k++ {
				tw[k] = cmplx.Exp(complex(0, sign*2*math.Pi*float64(k)/float64(size)))
			}
			stages = append(stages, tw)
		}
		if inverse {
			p.inverse = stages
		} else {
			p.forward = stages
		}
	}
	return p, nil
}

// Size returns the transform length.
func (p *Plan) Size() int { return p.n }

// Forward computes the DFT of src into dst (both length Size; they may be
// the same slice). No allocation.
func (p *Plan) Forward(dst, src []complex128) error {
	return p.execute(dst, src, p.forward, false)
}

// Inverse computes the inverse DFT (with 1/N normalization) of src into
// dst. No allocation.
func (p *Plan) Inverse(dst, src []complex128) error {
	return p.execute(dst, src, p.inverse, true)
}

func (p *Plan) execute(dst, src []complex128, stages [][]complex128, normalize bool) error {
	if len(dst) != p.n || len(src) != p.n {
		return errors.New("dsp: plan buffer length mismatch")
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	for i, j := range p.rev {
		if j > i {
			dst[i], dst[j] = dst[j], dst[i]
		}
	}
	butterflies(dst, stages)
	if normalize {
		inv := complex(1/float64(p.n), 0)
		for i := range dst {
			dst[i] *= inv
		}
	}
	return nil
}

// butterflies runs the radix-2 stages over x, which must already be in
// bit-reversed order; stages[s] holds the twiddles of the 2^(s+1)-point
// stage, so a prefix of a larger plan's tables transforms a shorter x.
func butterflies(x []complex128, stages [][]complex128) {
	for s, tw := range stages {
		size := 2 << s
		half := size >> 1
		for start := 0; start < len(x); start += size {
			lo, hi := x[start:start+half], x[start+half:start+size]
			for k, w := range tw {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// PSDInto computes a one-sided PSD of the real signal src (length Size)
// into power (length Size/2+1), with the same normalization as
// Periodogram under a nil window. Allocation-free.
//
// The real window is packed into a half-size complex transform (even
// samples in the real parts, odd in the imaginary) that runs over the
// plan's own tables: scratch must hold at least Size/2 entries, and only
// the first Size/2 are used.
func (p *Plan) PSDInto(power []float64, scratch []complex128, src []float64) error {
	n, h := p.n, p.n/2
	if len(src) != n || len(scratch) < h || len(power) != h+1 {
		return errors.New("dsp: PSDInto buffer length mismatch")
	}
	if n == 1 {
		power[0] = src[0] * src[0]
		return nil
	}
	// The h-point bit reversal of m is the n-point one shifted down: m < h
	// has a zero top bit, which reverses into a zero bottom bit.
	z := scratch[:h]
	for m := range z {
		z[p.rev[m]>>1] = complex(src[2*m], src[2*m+1])
	}
	last := len(p.forward) - 1
	butterflies(z, p.forward[:last])
	// Unpack: with E and O the transforms of the even and odd samples,
	// Z[k] = E[k] + i·O[k] and conj(Z[h-k]) = E[k] - i·O[k], and the
	// n-point bin is X[k] = E[k] + w^k·O[k] with w = e^{-2πi/n} — the
	// last stage's twiddles.
	norm := 1 / (float64(n) * float64(n))
	re0, im0 := real(z[0]), imag(z[0])
	power[0] = (re0 + im0) * (re0 + im0) * norm
	power[h] = (re0 - im0) * (re0 - im0) * norm
	tw := p.forward[last]
	for k := 1; k < h; k++ {
		a, b := z[k], cmplx.Conj(z[h-k])
		d := a - b
		x := (a + b) + tw[k]*complex(imag(d), -real(d)) // 2·X[k]
		re, im := real(x), imag(x)
		power[k] = (re*re + im*im) * (norm / 2)
	}
	return nil
}
