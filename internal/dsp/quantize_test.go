package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizerRounds(t *testing.T) {
	q, err := NewQuantizer(1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ in, want float64 }{
		{0.4, 0}, {0.6, 1}, {-0.4, 0}, {-0.6, -1}, {2.5, 3}, {2, 2},
	}
	for _, c := range cases {
		if got := q.Value(c.in); got != c.want {
			t.Errorf("Value(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantizerOffset(t *testing.T) {
	q := &Quantizer{Step: 2, Offset: 1}
	// Grid is ..., -1, 1, 3, 5, ...
	if got := q.Value(1.9); got != 1 {
		t.Fatalf("Value(1.9) = %v, want 1", got)
	}
	if got := q.Value(2.1); got != 3 {
		t.Fatalf("Value(2.1) = %v, want 3", got)
	}
}

func TestQuantizerNil(t *testing.T) {
	var q *Quantizer
	if got := q.Value(1.234); got != 1.234 {
		t.Fatalf("nil quantizer should be identity, got %v", got)
	}
}

func TestNewQuantizerErrors(t *testing.T) {
	for _, step := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewQuantizer(step); err == nil {
			t.Errorf("NewQuantizer(%v) should fail", step)
		}
	}
}

func TestQuantizerErrorBoundProperty(t *testing.T) {
	f := func(v float64, stepSeed uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		v = math.Mod(v, 1e9)
		step := 0.5 + float64(stepSeed%40)/10 // 0.5 .. 4.4
		q := &Quantizer{Step: step}
		got := q.Value(v)
		return math.Abs(got-v) <= step/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizerIdempotentProperty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		v = math.Mod(v, 1e6)
		q := &Quantizer{Step: 0.25}
		once := q.Value(v)
		return q.Value(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizerApply(t *testing.T) {
	q := &Quantizer{Step: 1}
	in := []float64{0.1, 0.9, 1.5, -0.7}
	out := q.Apply(in)
	want := []float64{0, 1, 2, -1}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Apply[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if in[0] != 0.1 {
		t.Fatal("Apply must not mutate its input")
	}
}

func TestEstimateStepRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := &Quantizer{Step: 0.5}
	x := make([]float64, 500)
	for i := range x {
		x[i] = q.Value(10 * math.Sin(float64(i)/20) * rng.Float64())
	}
	got := EstimateStep(x)
	if !almostEqual(got, 0.5, 1e-9) {
		t.Fatalf("EstimateStep = %v, want 0.5", got)
	}
}

func TestEstimateStepUnquantized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if got := EstimateStep(x); got != 0 {
		t.Fatalf("EstimateStep on white noise = %v, want 0", got)
	}
}

func TestEstimateStepConstant(t *testing.T) {
	x := []float64{3, 3, 3, 3}
	if got := EstimateStep(x); got != 0 {
		t.Fatalf("EstimateStep on constant = %v, want 0", got)
	}
	if got := EstimateStep(nil); got != 0 {
		t.Fatalf("EstimateStep on empty = %v, want 0", got)
	}
}

func TestWindowCoefficients(t *testing.T) {
	// All windows are 1 at a single point and bounded in [0, 1.01].
	for _, w := range []Window{Hann{}} {
		if got := w.Coeff(0, 1); got != 1 {
			t.Errorf("%s: Coeff(0,1) = %v, want 1", w.Name(), got)
		}
		for i := 0; i < 64; i++ {
			c := w.Coeff(i, 64)
			if c < -1e-9 || c > 1.01 {
				t.Errorf("%s: Coeff(%d,64) = %v out of range", w.Name(), i, c)
			}
		}
	}
}

func TestWindowSymmetry(t *testing.T) {
	for _, w := range []Window{Hann{}} {
		const n = 33
		for i := 0; i < n/2; i++ {
			if !almostEqual(w.Coeff(i, n), w.Coeff(n-1-i, n), 1e-12) {
				t.Errorf("%s asymmetric at %d", w.Name(), i)
			}
		}
	}
}

func TestApplyWindowNil(t *testing.T) {
	x := []float64{1, 2, 3}
	out := ApplyWindow(x, nil)
	for i := range x {
		if out[i] != x[i] {
			t.Fatal("nil window must copy unchanged")
		}
	}
	out[0] = 99
	if x[0] == 99 {
		t.Fatal("ApplyWindow must return a copy")
	}
}

func TestWindowPower(t *testing.T) {
	if got := WindowPower(nil, 10); got != 1 {
		t.Fatalf("nil window power = %v, want 1", got)
	}
	// Hann mean squared coefficient approaches 3/8 for large n.
	if got := WindowPower(Hann{}, 4096); math.Abs(got-0.375) > 0.01 {
		t.Fatalf("hann window power = %v, want ~0.375", got)
	}
}
