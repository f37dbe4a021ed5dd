package series

import (
	"math"
	"testing"
	"time"
)

// TestResampleGrid pins the reconstruction entry point: the caller owns
// the grid (anchor and pitch), values interpolate per policy, slots
// outside the observed span clamp to the edges, and a slot the caller has
// already set is left as it is.
func TestResampleGrid(t *testing.T) {
	s := &Series{}
	// Samples at 0, 10, 20 s with values 0, 10, 20: linear in time.
	for i := 0; i <= 2; i++ {
		s.Append(Point{Time: t0.Add(time.Duration(i) * 10 * time.Second), Value: float64(10 * i)})
	}
	grid := func(s *Series, start time.Time, interval time.Duration, n int, ip Interpolation) ([]float64, error) {
		values := make([]float64, n)
		for i := range values {
			values[i] = math.NaN()
		}
		return values, s.ResampleGrid(values, start, interval, ip)
	}

	t.Run("linear-on-offset-grid", func(t *testing.T) {
		// Grid anchored between samples: 5, 10, 15 s.
		values, err := grid(s, t0.Add(5*time.Second), 5*time.Second, 3, Linear)
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{5, 10, 15}
		for i, w := range want {
			if math.Abs(values[i]-w) > 1e-9 {
				t.Fatalf("linear slot %d = %v, want %v", i, values[i], w)
			}
		}
	})
	t.Run("previous-holds", func(t *testing.T) {
		values, err := grid(s, t0.Add(5*time.Second), 5*time.Second, 3, PreviousValue)
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{0, 10, 10} // sample-and-hold between observations
		for i, w := range want {
			if values[i] != w {
				t.Fatalf("previous slot %d = %v, want %v", i, values[i], w)
			}
		}
	})
	t.Run("nearest-snaps", func(t *testing.T) {
		values, err := grid(s, t0.Add(4*time.Second), 12*time.Second, 2, NearestNeighbor)
		if err != nil {
			t.Fatal(err)
		}
		// 4s is closer to the 0s sample (4s away) than to 10s (6s away);
		// 16s is closer to 20s (4s) than to 10s (6s).
		if values[0] != 0 || values[1] != 20 {
			t.Fatalf("nearest = %v, want [0 20]", values)
		}
	})
	t.Run("clamps-outside-span", func(t *testing.T) {
		// Grid extends 10 s before and after the observations.
		values, err := grid(s, t0.Add(-10*time.Second), 10*time.Second, 5, Linear)
		if err != nil {
			t.Fatal(err)
		}
		if values[0] != 0 {
			t.Fatalf("pre-span slot = %v, want edge clamp 0", values[0])
		}
		if values[4] != 20 {
			t.Fatalf("post-span slot = %v, want edge clamp 20", values[4])
		}
	})
	t.Run("set-slots-kept", func(t *testing.T) {
		for _, ip := range []Interpolation{NearestNeighbor, Linear, PreviousValue} {
			values := []float64{math.NaN(), 7, math.NaN()}
			if err := s.ResampleGrid(values, t0.Add(5*time.Second), 5*time.Second, ip); err != nil {
				t.Fatal(err)
			}
			want, _ := grid(s, t0.Add(5*time.Second), 5*time.Second, 3, ip)
			if values[1] != 7 || values[0] != want[0] || values[2] != want[2] {
				t.Fatalf("%v around a set slot = %v, want [%v 7 %v]", ip, values, want[0], want[2])
			}
		}
	})
	t.Run("errors", func(t *testing.T) {
		if _, err := grid(s, t0, 0, 3, Linear); err != ErrBadInterval {
			t.Fatalf("zero interval: %v, want ErrBadInterval", err)
		}
		if _, err := grid(s, t0, time.Second, 0, Linear); err != ErrTooShort {
			t.Fatalf("zero slots: %v, want ErrTooShort", err)
		}
		if _, err := grid(&Series{}, t0, time.Second, 3, Linear); err != ErrEmpty {
			t.Fatalf("empty series: %v, want ErrEmpty", err)
		}
		if _, err := grid(s, t0, time.Second, 3, Interpolation(99)); err != ErrBadInterpolation {
			t.Fatalf("unknown policy: %v, want ErrBadInterpolation", err)
		}
	})
}
