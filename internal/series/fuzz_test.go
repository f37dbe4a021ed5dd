package series

import (
	"errors"
	"math"
	"testing"
	"time"
)

// FuzzRegularize feeds random irregular traces through every
// interpolation policy and checks the grid contract: the output starts at
// the first observation, covers the observed span on an exact uniform
// grid, contains no NaN/Inf for finite inputs, and never invents values
// outside the observed range (nearest and previous pick existing samples;
// linear interpolates between neighbours). A grid over maxGridSlots slots
// is refused instead.
func FuzzRegularize(f *testing.F) {
	f.Add([]byte{10, 1, 200, 50, 30, 128}, uint16(7), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 255}, uint16(1), uint8(1))
	f.Add([]byte{60, 20, 60, 40, 60, 60, 60, 80}, uint16(60), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, intervalS uint16, policy uint8) {
		interval := time.Duration(1+int(intervalS%7200)) * time.Second
		ip := Interpolation(policy % 3)
		start := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

		s := &Series{}
		now := start
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i+1 < len(data); i += 2 {
			// Deltas of 0..255 s: duplicates and bursts of co-timestamped
			// samples are part of the contract.
			now = now.Add(time.Duration(data[i]) * time.Second)
			v := float64(int8(data[i+1]))
			s.Append(Point{Time: now, Value: v})
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		u, err := s.Regularize(interval, ip)
		if s.Len() == 0 {
			if err == nil {
				t.Fatal("empty series regularized without error")
			}
			return
		}
		pts := s.Points()
		first, last := pts[0].Time, pts[len(pts)-1].Time
		if last.Sub(first)/interval >= maxGridSlots {
			if !errors.Is(err, ErrGridTooLarge) {
				t.Fatalf("grid over %d slots: err = %v, want ErrGridTooLarge", maxGridSlots, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("regularize(%v, %v) on %d points: %v", interval, ip, s.Len(), err)
		}

		if !u.Start.Equal(first) {
			t.Fatalf("grid starts at %v, want first observation %v", u.Start, first)
		}
		if u.Interval != interval {
			t.Fatalf("grid interval %v, want %v", u.Interval, interval)
		}
		wantLen := int(last.Sub(first)/interval) + 1
		if u.Len() != wantLen {
			t.Fatalf("grid has %d slots, want %d for span %v at %v", u.Len(), wantLen, last.Sub(first), interval)
		}
		for i, v := range u.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("slot %d is %v for finite inputs", i, v)
			}
			// All three policies stay within the observed value range.
			if v < lo-1e-9 || v > hi+1e-9 {
				t.Fatalf("slot %d value %v outside observed range [%v, %v] under %v", i, v, lo, hi, ip)
			}
		}
	})
}
