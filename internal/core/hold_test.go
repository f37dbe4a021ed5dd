package core

import (
	"math"
	"testing"
)

// TestRetentionHold walks the §4.2 asymmetry step by step: every row
// offers one estimate and states the held rate, whether it changed, and
// how many lower estimates the hold has counted since.
func TestRetentionHold(t *testing.T) {
	type step struct {
		offer       float64
		wantRate    float64
		wantChanged bool
		wantBelow   int
	}
	for _, tc := range []struct {
		name     string
		turnover int
		steps    []step
	}{
		{"raises at once, equal changes nothing", 4, []step{
			{0.5, 0.5, true, 0},
			{0.5, 0.5, false, 0},
			{0.75, 0.75, true, 0},
			{0.75, 0.75, false, 0},
		}},
		{"turnover-1 lower estimates change nothing, the turnover-th lowers to their max, not their last", 4, []step{
			{1, 1, true, 0},
			{0.5, 1, false, 1},
			{0.75, 1, false, 2},
			{0.25, 1, false, 3},
			{0.5, 0.75, true, 0},
			// The wait restarts from the new rate.
			{0.5, 0.75, false, 1},
			{0.5, 0.75, false, 2},
			{0.5, 0.75, false, 3},
			{0.5, 0.5, true, 0},
		}},
		{"a higher estimate mid-wait raises and clears the wait", 3, []step{
			{1, 1, true, 0},
			{0.5, 1, false, 1},
			{0.5, 1, false, 2},
			{2, 2, true, 0},
			{0.5, 2, false, 1},
			{0.75, 2, false, 2},
			{0.25, 0.75, true, 0},
		}},
		{"an equal estimate mid-wait clears the wait and its peak", 3, []step{
			{1, 1, true, 0},
			{0.75, 1, false, 1},
			{0.75, 1, false, 2},
			{1, 1, false, 0},
			{0.25, 1, false, 1},
			{0.25, 1, false, 2},
			{0.25, 0.25, true, 0},
		}},
		{"turnover 1 follows every estimate", 1, []step{
			{1, 1, true, 0},
			{0.5, 0.5, true, 0},
			{0.5, 0.5, false, 0},
			{0.25, 0.25, true, 0},
			{0.75, 0.75, true, 0},
		}},
		{"turnover 0 and below likewise", -3, []step{
			{1, 1, true, 0},
			{0.5, 0.5, true, 0},
			{0.75, 0.75, true, 0},
		}},
		{"NaN, zero, negative and +Inf never enter", 2, []step{
			{math.NaN(), 0, false, 0},
			{0, 0, false, 0},
			{-1, 0, false, 0},
			{math.Inf(1), 0, false, 0},
			{1, 1, true, 0},
			{0.5, 1, false, 1},
			// Neither counted as lower estimates nor as a reset of the wait.
			{math.NaN(), 1, false, 1},
			{0, 1, false, 1},
			{math.Inf(-1), 1, false, 1},
			{math.Inf(1), 1, false, 1},
			{0.25, 0.5, true, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h RetentionHold
			for i, s := range tc.steps {
				rate, changed := h.Offer(s.offer, tc.turnover)
				if rate != s.wantRate || changed != s.wantChanged || h.Below() != s.wantBelow || h.Rate() != rate {
					t.Fatalf("step %d: Offer(%v) = (%v, %v), below %d, Rate() %v; want (%v, %v), below %d",
						i, s.offer, rate, changed, h.Below(), h.Rate(), s.wantRate, s.wantChanged, s.wantBelow)
				}
			}
		})
	}
}

// TestRetentionHoldReset pins the restart/re-probe entry: the rate comes
// back, the lower estimates counted so far do not.
func TestRetentionHoldReset(t *testing.T) {
	var h RetentionHold
	h.Offer(1, 3)
	h.Offer(0.75, 3)
	h.Offer(0.75, 3)
	h.Reset(h.Rate())
	if h.Rate() != 1 || h.Below() != 0 {
		t.Fatalf("after Reset: rate %v, below %d; want 1, 0", h.Rate(), h.Below())
	}
	// A full fresh turnover is needed again, and the forgotten 0.75s do
	// not set its level.
	for i, want := range []float64{1, 1, 0.5} {
		if rate, _ := h.Offer(0.5, 3); rate != want {
			t.Fatalf("offer %d after Reset: rate %v, want %v", i, rate, want)
		}
	}
	for _, bad := range []float64{math.NaN(), 0, -2, math.Inf(1)} {
		h.Reset(bad)
		if h.Rate() != 0 {
			t.Fatalf("Reset(%v) holds %v, want nothing", bad, h.Rate())
		}
	}
}
