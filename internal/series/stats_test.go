package series

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDetrendZeroMeanProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			clean = append(clean, math.Mod(v, 1e9))
		}
		if len(clean) == 0 {
			return true
		}
		d := Detrend(clean)
		if len(d) != len(clean) {
			return false
		}
		m := Mean(d)
		scale := 1.0
		for _, v := range clean {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		return math.Abs(m) < 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {-5, 1}, {200, 4},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(empty) should be NaN")
	}
	// Input must not be reordered.
	if vals[0] != 4 {
		t.Error("Percentile mutated its input")
	}
}

func TestBoxStats(t *testing.T) {
	b := BoxStats([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Median != 3 || b.Max != 5 || b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("BoxStats = %+v", b)
	}
}

func TestBoxStatsOrderedProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		b := BoxStats(clean)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrement is the counter rule's table: a monotone run differences
// (what the first difference of 1, 4, 9, 16 reads), an unchanged reading
// is no increase, and a fall is a reset that reads the new value, never a
// negative spike.
func TestIncrement(t *testing.T) {
	for _, c := range []struct {
		name            string
		prev, cur, want float64
	}{
		{"1 → 4", 1, 4, 3},
		{"4 → 9", 4, 9, 5},
		{"9 → 16", 9, 16, 7},
		{"unchanged", 16, 16, 0},
		{"reset to zero", 1e9, 0, 0},
		{"reset and counted", 1e9, 7, 7},
		{"fractional", 0.25, 1.75, 1.5},
	} {
		if got := Increment(c.prev, c.cur); got != c.want {
			t.Errorf("%s: Increment(%v, %v) = %v, want %v", c.name, c.prev, c.cur, got, c.want)
		}
	}
}

func TestInterpolationString(t *testing.T) {
	cases := map[Interpolation]string{
		NearestNeighbor:    "nearest",
		Linear:             "linear",
		PreviousValue:      "previous",
		Interpolation(100): "unknown",
	}
	for ip, want := range cases {
		if got := ip.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ip, got, want)
		}
	}
}
