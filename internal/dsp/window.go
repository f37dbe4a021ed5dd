package dsp

import "math"

// Window is a taper applied to a signal segment before spectral analysis to
// control leakage. Implementations return the coefficient for index i of an
// n-point window.
type Window interface {
	// Coeff returns the window coefficient at index i of an n-point window.
	Coeff(i, n int) float64
	// Name returns a short human-readable identifier.
	Name() string
}

// Hann is the raised-cosine window, a good default for noisy monitoring
// signals with unknown content.
type Hann struct{}

// Coeff implements Window.
func (Hann) Coeff(i, n int) float64 {
	if n <= 1 {
		return 1
	}
	return 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
}

// Name implements Window.
func (Hann) Name() string { return "hann" }

// ApplyWindow returns a copy of x multiplied point-wise by w. The input is
// not modified. A nil window is the rectangular (identity) one.
func ApplyWindow(x []float64, w Window) []float64 {
	out := make([]float64, len(x))
	if w == nil {
		copy(out, x)
		return out
	}
	n := len(x)
	for i, v := range x {
		out[i] = v * w.Coeff(i, n)
	}
	return out
}

// WindowPower returns the mean squared coefficient of an n-point window,
// used to normalize power spectral densities so that windowed and
// unwindowed estimates integrate to the same total power.
func WindowPower(w Window, n int) float64 {
	if w == nil || n == 0 {
		return 1
	}
	var s float64
	for i := 0; i < n; i++ {
		c := w.Coeff(i, n)
		s += c * c
	}
	return s / float64(n)
}
