package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

// mk builds a series with samples at the given second offsets and values
// equal to the offsets unless vals is provided.
func mk(offsets []float64, vals ...[]float64) *Series {
	pts := make([]Point, len(offsets))
	for i, o := range offsets {
		v := o
		if len(vals) > 0 {
			v = vals[0][i]
		}
		pts[i] = Point{Time: t0.Add(time.Duration(o * float64(time.Second))), Value: v}
	}
	return New(pts)
}

// values returns s's sample values in time order.
func values(s *Series) []float64 {
	var out []float64
	for _, p := range s.Points() {
		out = append(out, p.Value)
	}
	return out
}

func TestSeriesSortsPoints(t *testing.T) {
	s := mk([]float64{5, 1, 3})
	vals := values(s)
	want := []float64{1, 3, 5}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values = %v, want sorted %v", vals, want)
		}
	}
}

func TestSeriesAppendOutOfOrder(t *testing.T) {
	s := &Series{}
	s.Append(Point{Time: t0.Add(10 * time.Second), Value: 10})
	s.Append(Point{Time: t0, Value: 0})
	s.Append(Point{Time: t0.Add(5 * time.Second), Value: 5})
	got := values(s)
	want := []float64{0, 5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
	pts := s.Points()
	if !pts[0].Time.Equal(t0) || !pts[2].Time.Equal(t0.Add(10*time.Second)) {
		t.Fatalf("points span %v .. %v", pts[0].Time, pts[2].Time)
	}
}

func TestSeriesEmptyErrors(t *testing.T) {
	s := &Series{}
	if _, err := s.MedianInterval(); err != ErrTooShort {
		t.Fatalf("MedianInterval on empty = %v, want ErrTooShort", err)
	}
	if got := s.String(); got != "series(empty)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMedianIntervalRobustToJitter(t *testing.T) {
	// Nominal 10 s polling with one huge gap; median must stay 10 s.
	s := mk([]float64{0, 10, 20, 30, 40, 400, 410, 420, 430})
	med, err := s.MedianInterval()
	if err != nil {
		t.Fatal(err)
	}
	if med != 10*time.Second {
		t.Fatalf("median interval = %v, want 10s", med)
	}
}

func TestUniformBasics(t *testing.T) {
	u, err := NewUniform(t0, 2*time.Second, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.SampleRate(); got != 0.5 {
		t.Fatalf("SampleRate = %v, want 0.5", got)
	}
	if got := u.TimeAt(3); !got.Equal(t0.Add(6 * time.Second)) {
		t.Fatalf("TimeAt(3) = %v", got)
	}
	if _, err := NewUniform(t0, 0, nil); err != ErrBadInterval {
		t.Fatalf("want ErrBadInterval, got %v", err)
	}
}

func TestUniformSeriesRoundTrip(t *testing.T) {
	u, _ := NewUniform(t0, time.Second, []float64{5, 6, 7})
	s := New([]Point{{Time: t0, Value: 5}, {Time: t0.Add(time.Second), Value: 6}, {Time: t0.Add(2 * time.Second), Value: 7}})
	u2, err := s.Regularize(time.Second, NearestNeighbor)
	if err != nil {
		t.Fatal(err)
	}
	if len(u2.Values) != 3 {
		t.Fatalf("round trip has %d values", len(u2.Values))
	}
	for i := range u.Values {
		if u2.Values[i] != u.Values[i] {
			t.Fatalf("round trip value %d: %v vs %v", i, u2.Values[i], u.Values[i])
		}
	}
}

func TestUniformSlice(t *testing.T) {
	u, _ := NewUniform(t0, time.Second, []float64{0, 1, 2, 3, 4})
	sub, err := u.Slice(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Start.Equal(t0.Add(time.Second)) || len(sub.Values) != 3 {
		t.Fatalf("slice = %+v", sub)
	}
	if _, err := u.Slice(3, 2); err == nil {
		t.Fatal("want error for inverted slice")
	}
	if _, err := u.Slice(-1, 2); err == nil {
		t.Fatal("want error for negative index")
	}
	if _, err := u.Slice(0, 99); err == nil {
		t.Fatal("want error for out-of-range end")
	}
}

func TestRegularizeNearest(t *testing.T) {
	// Observations at 0, 2.6, 5.1s; grid of 1s spacing.
	s := mk([]float64{0, 2.6, 5.1}, []float64{10, 20, 30})
	u, err := s.Regularize(time.Second, NearestNeighbor)
	if err != nil {
		t.Fatal(err)
	}
	// Grid times 0..5. Nearest: 0->10, 1->10(dist1 vs 1.6), 2->20, 3->20,
	// 4->20 (1.4 vs 1.1 -> actually 4 is 1.4 from 2.6 and 1.1 from 5.1 -> 30)
	want := []float64{10, 10, 20, 20, 30, 30}
	if len(u.Values) != len(want) {
		t.Fatalf("values = %v, want %v", u.Values, want)
	}
	for i := range want {
		if u.Values[i] != want[i] {
			t.Fatalf("values = %v, want %v", u.Values, want)
		}
	}
}

func TestRegularizeLinear(t *testing.T) {
	s := mk([]float64{0, 4}, []float64{0, 8})
	u, err := s.Regularize(time.Second, Linear)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 4, 6, 8}
	for i := range want {
		if math.Abs(u.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("values = %v, want %v", u.Values, want)
		}
	}
}

func TestRegularizePrevious(t *testing.T) {
	s := mk([]float64{0, 2.5, 5}, []float64{1, 2, 3})
	u, err := s.Regularize(time.Second, PreviousValue)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 1, 2, 2, 3}
	for i := range want {
		if u.Values[i] != want[i] {
			t.Fatalf("values = %v, want %v", u.Values, want)
		}
	}
}

func TestRegularizeErrors(t *testing.T) {
	s := mk([]float64{0, 1})
	if _, err := s.Regularize(0, NearestNeighbor); err != ErrBadInterval {
		t.Fatalf("want ErrBadInterval, got %v", err)
	}
	if _, err := s.Regularize(time.Second, Interpolation(99)); err != ErrBadInterpolation {
		t.Fatalf("want ErrBadInterpolation, got %v", err)
	}
	empty := &Series{}
	if _, err := empty.Regularize(time.Second, NearestNeighbor); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestRegularizeAuto(t *testing.T) {
	// 30 s polling with jitter; auto grid should be ~30 s.
	rng := rand.New(rand.NewSource(4))
	pts := make([]Point, 100)
	for i := range pts {
		jitter := time.Duration(rng.Intn(2000)-1000) * time.Millisecond
		pts[i] = Point{Time: t0.Add(time.Duration(i)*30*time.Second + jitter), Value: float64(i)}
	}
	s := New(pts)
	u, err := s.RegularizeAuto()
	if err != nil {
		t.Fatal(err)
	}
	if u.Interval < 28*time.Second || u.Interval > 32*time.Second {
		t.Fatalf("auto interval = %v, want ~30s", u.Interval)
	}
	if u.Len() < 95 || u.Len() > 105 {
		t.Fatalf("auto length = %d, want ~100", u.Len())
	}
}

func TestRegularizeCoversSpanProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 150 {
			raw = raw[:150]
		}
		pts := make([]Point, len(raw))
		for i, r := range raw {
			pts[i] = Point{Time: t0.Add(time.Duration(r) * time.Second), Value: float64(i)}
		}
		s := New(pts)
		u, err := s.Regularize(time.Second, NearestNeighbor)
		if err != nil {
			return false
		}
		sorted := s.Points()
		wantLen := int(sorted[len(sorted)-1].Time.Sub(sorted[0].Time)/time.Second) + 1
		if u.Len() != wantLen {
			return false
		}
		// Every produced value must be one of the input values.
		valid := make(map[float64]bool, len(pts))
		for _, p := range pts {
			valid[p.Value] = true
		}
		for _, v := range u.Values {
			if !valid[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGaps(t *testing.T) {
	s := mk([]float64{0, 10, 20, 30, 90, 100, 110})
	gaps, err := s.Gaps(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 1 {
		t.Fatalf("gaps = %+v, want one gap", gaps)
	}
	g := gaps[0]
	if g.Length() != 60*time.Second {
		t.Fatalf("gap length = %v, want 60s", g.Length())
	}
	if g.Missing != 5 {
		t.Fatalf("missing = %d, want 5", g.Missing)
	}
}

func TestGapsNoGaps(t *testing.T) {
	s := mk([]float64{0, 10, 20, 30})
	gaps, err := s.Gaps(0) // 0 -> default factor 1.5
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 0 {
		t.Fatalf("gaps = %+v, want none", gaps)
	}
}
