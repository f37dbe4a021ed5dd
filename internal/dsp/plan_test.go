package dsp

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// refPSD is the two-step PSD PSDInto replaces: taper the window into a
// copy of src ((src[i] − mean) · taper[i]; src as is when it is
// rectangular with mean 0, as the rectangular estimator passed it), then
// take the packed half-size transform with every twiddle multiplied.
func refPSD(p *Plan, src []float64, mean float64, taper []float64) []float64 {
	n, h := p.n, p.n/2
	frame := append([]float64(nil), src...)
	switch {
	case taper != nil:
		for i, c := range taper {
			frame[i] = (frame[i] - mean) * c
		}
	case mean != 0:
		for i := range frame {
			frame[i] -= mean
		}
	}
	power := make([]float64, h+1)
	if n == 1 {
		power[0] = frame[0] * frame[0]
		return power
	}
	z := make([]complex128, h)
	for m := range z {
		z[p.rev[m]>>1] = complex(frame[2*m], frame[2*m+1])
	}
	last := len(p.forward) - 1
	for s, tw := range p.forward[:last] {
		size := 2 << s
		half := size >> 1
		for start := 0; start < len(z); start += size {
			lo, hi := z[start:start+half], z[start+half:start+size]
			for k, w := range tw {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
	norm := 1 / (float64(n) * float64(n))
	re0, im0 := real(z[0]), imag(z[0])
	power[0] = (re0 + im0) * (re0 + im0) * norm
	power[h] = (re0 - im0) * (re0 - im0) * norm
	tw := p.forward[last]
	for k := 1; k < h; k++ {
		a, b := z[k], cmplx.Conj(z[h-k])
		d := a - b
		x := (a + b) + tw[k]*complex(imag(d), -real(d))
		re, im := real(x), imag(x)
		power[k] = (re*re + im*im) * (norm / 2)
	}
	return power
}

func floatBytes(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzPSDInto holds the tapering transform to the two steps it fuses,
// bit for bit in every bin, over plan sizes 1…4096. The window's head is
// the fuzzed float64s, its tail a seeded noisy tone; shape picks the
// taper (none, Hann, or the tail's own noise as coefficients) and, with
// bit 2, the window's own mean in place of the fuzzed one, as the
// estimator passes it. The seeds hold ±Inf, NaN, −0 and values whose
// transform overflows: there the unit twiddle's skipped multiply would
// leave out the NaN of ∞·0, so they pin the retake with every multiply.
// A NaN bin only has to be NaN: which operand's payload and sign a NaN
// sum carries is the compiler's choice of operand order, which two
// compilations of the same arithmetic may make differently (the
// estimator's goldens pin its own NaN rows).
func FuzzPSDInto(f *testing.F) {
	inf, nan, negz := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	f.Add(uint8(8), uint8(1), 0.0, []byte{})
	f.Add(uint8(8), uint8(5), 0.0, floatBytes(1.5, 2.25, -3))
	f.Add(uint8(0), uint8(0), 0.0, floatBytes(negz))
	f.Add(uint8(1), uint8(1), 0.5, floatBytes(negz, 7))
	f.Add(uint8(2), uint8(0), 0.0, floatBytes(negz, negz, 0, negz))
	f.Add(uint8(8), uint8(5), 0.0, floatBytes(1, 2, inf))
	f.Add(uint8(8), uint8(0), 0.0, floatBytes(1, -inf, 2))
	f.Add(uint8(8), uint8(4), 0.0, floatBytes(inf, -inf))
	f.Add(uint8(6), uint8(1), 0.0, floatBytes(3, nan, 4))
	f.Add(uint8(6), uint8(0), inf, floatBytes(3))
	f.Add(uint8(4), uint8(0), 0.0, floatBytes(1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308))
	f.Add(uint8(5), uint8(1), -1e308, floatBytes(1e308, 1e308, 1e308, 1e308))
	f.Add(uint8(12), uint8(2), 0.0, floatBytes(negz, 1e-320, -1e-320))
	f.Fuzz(func(t *testing.T, logN, shape uint8, mean float64, raw []byte) {
		n := 1 << (logN % 13)
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(logN)<<8 | int64(shape)))
		src := make([]float64, n)
		noise := make([]float64, n)
		for i := range src {
			noise[i] = rng.Float64()
			if 8*i+8 <= len(raw) {
				src[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			} else {
				src[i] = 40 + 3*math.Sin(float64(i)/5) + noise[i]
			}
		}
		var taper []float64
		switch shape % 3 {
		case 1:
			taper = make([]float64, n)
			for i := range taper {
				taper[i] = Hann{}.Coeff(i, n)
			}
		case 2:
			taper = noise
		}
		if shape&4 != 0 {
			mean = 0
			for _, v := range src {
				mean += v
			}
			mean /= float64(n)
		}
		want := refPSD(p, src, mean, taper)
		got := make([]float64, n/2+1)
		if err := p.PSDInto(got, make([]complex128, n/2), src, mean, taper); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
				t.Fatalf("n=%d taper=%d mean=%v bin %d: %v (%#x), two steps %v (%#x)",
					n, shape%3, mean, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
			}
		}
	})
}
