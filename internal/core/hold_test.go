package core

import (
	"math"
	"math/rand"
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

// TestRatePolicy walks the §4.2 contract one verdict at a time: every row
// feeds one aliased verdict (rate < 0) or one clean estimate and states
// what the policy answers and holds afterwards.
func TestRatePolicy(t *testing.T) {
	const aliased = -1
	type step struct {
		rate        float64
		wantProbe   bool // aliased rows only
		wantHeld    float64
		wantChanged bool
		wantClean   int
		wantBelow   int
	}
	for _, tc := range []struct {
		name     string
		turnover int
		steps    []step
	}{
		{"aliased once is a blip, twice probes, a clean verdict between starts over", 1, []step{
			{aliased, false, 0, false, 0, 0},
			{aliased, true, 0, false, 0, 0},
			{aliased, true, 0, false, 0, 0},
			{0.5, false, 0.5, true, 1, 0},
			{aliased, false, 0.5, false, 0, 0},
			{0.5, false, 0.5, false, 1, 0},
			{aliased, false, 0.5, false, 0, 0},
			{aliased, true, 0.5, false, 0, 0},
		}},
		{"disjoint windows trust the first clean estimate and follow every one", 1, []step{
			{0.5, false, 0.5, true, 1, 0},
			{0.25, false, 0.25, true, 2, 0},
			{aliased, false, 0.25, false, 0, 0},
			{0.75, false, 0.75, true, 1, 0},
		}},
		{"overlapping windows trust the second", 4, []step{
			{0.5, false, 0, false, 1, 0},
			{0.75, false, 0.75, true, 2, 0},
			{aliased, false, 0.75, false, 0, 0},
			{1, false, 0.75, false, 1, 0},
			{1, false, 1, true, 2, 0},
		}},
		{"aliased verdicts neither count toward nor reset the hold's wait", 3, []step{
			{1, false, 0, false, 1, 0},
			{1, false, 1, true, 2, 0},
			{0.5, false, 1, false, 3, 1},
			{aliased, false, 1, false, 0, 1},
			{aliased, true, 1, false, 0, 1},
			{0.25, false, 1, false, 1, 1}, // first of a new clean run: not offered
			{0.25, false, 1, false, 2, 2},
			{0.375, false, 0.5, true, 3, 0}, // the third lower one: down to their max
		}},
		{"a rate that is none is no verdict: both runs start over, the hold is untouched", 4, []step{
			{1, false, 0, false, 1, 0},
			{1, false, 1, true, 2, 0},
			{0.5, false, 1, false, 3, 1},
			{0, false, 1, false, 0, 1},
			{math.NaN(), false, 1, false, 0, 1},
			{aliased, false, 1, false, 0, 1},
			{math.Inf(1), false, 1, false, 0, 1},
			{aliased, false, 1, false, 0, 1},
		}},
	} {
		var p RatePolicy
		for i, st := range tc.steps {
			var held float64
			var changed, probe bool
			if st.rate == aliased {
				probe = p.Aliased()
				held = p.Held()
			} else {
				held, changed = p.Clean(st.rate, tc.turnover)
			}
			if probe != st.wantProbe || held != st.wantHeld || p.Held() != held || changed != st.wantChanged ||
				p.CleanStreak() != st.wantClean || p.Below() != st.wantBelow {
				t.Fatalf("%s: step %d (%v): probe %v held %v changed %v clean %d below %d, want %v %v %v %d %d",
					tc.name, i, st.rate, probe, held, changed, p.CleanStreak(), p.Below(),
					st.wantProbe, st.wantHeld, st.wantChanged, st.wantClean, st.wantBelow)
			}
		}
	}

	// Regrid keeps the held rate and clears both runs and the wait.
	var p RatePolicy
	for _, r := range []float64{1, 1, 0.5, 0.5} {
		p.Clean(r, 8)
	}
	p.Aliased()
	if p.Held() != 1 || p.Below() != 2 {
		t.Fatalf("before regrid: held %v below %d, want 1 and 2", p.Held(), p.Below())
	}
	p.Regrid()
	if p.Held() != 1 || p.Below() != 0 || p.CleanStreak() != 0 || p.Aliased() {
		t.Fatalf("after regrid: held %v below %d clean %d (or the aliased run survived), want 1, 0, 0", p.Held(), p.Below(), p.CleanStreak())
	}
	// Restore brings back the held rate and the clean run, not the wait.
	p.Restore(0.5, 1)
	if held, changed := p.Clean(0.75, 8); held != 0.75 || !changed || p.CleanStreak() != 2 {
		t.Fatalf("after restore: held %v changed %v clean %d, want the second clean verdict trusted", held, changed, p.CleanStreak())
	}
	p.Restore(math.NaN(), -3)
	if p.Held() != 0 || p.CleanStreak() != 0 {
		t.Fatalf("restoring no rate: held %v clean %d, want nothing held", p.Held(), p.CleanStreak())
	}
}

// parentRule is the rule RatePolicy replaced, transcribed from the parent
// commit: monitor's observeLocked/handOver (a clean-streak counter in
// front of a RetentionHold) and fleet.Controller's aliased streak.
type parentRule struct {
	cleanStreak, streak int
	lastNyquist         float64
	hold                RetentionHold
}

func (p *parentRule) step(aliased bool, rate float64, turnover int) (probe bool, held float64, changed bool) {
	if aliased {
		p.streak++
		probe = p.streak >= 2
	} else {
		p.streak = 0
	}
	if !aliased && rate > 0 {
		p.cleanStreak++
		if p.cleanStreak >= 2 {
			p.lastNyquist = rate
			held, changed = p.hold.Offer(rate, turnover)
			return probe, held, changed
		}
	} else {
		p.cleanStreak = 0
	}
	return probe, p.hold.Rate(), false
}

// TestRatePolicyMatchesParentRule drives seeded random verdict sequences
// (clean estimates from a small set so equal and lower ones recur, aliased
// bursts, rateless verdicts, the odd regrid) through RatePolicy and
// through the parent's rule over overlapping windows, where the two must
// agree on everything at every step.
func TestRatePolicyMatchesParentRule(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		turnover := 2 + rng.Intn(8)
		var p RatePolicy
		var want parentRule
		trusted := 0.0
		for i := 0; i < 400; i++ {
			var aliased bool
			var rate float64
			switch r := rng.Float64(); {
			case r < 0.02:
				p.Regrid()
				want.cleanStreak, want.streak = 0, 0
				want.hold.Reset(want.hold.Rate())
				continue
			case r < 0.22:
				aliased = true
			case r < 0.27:
				rate = 0
			default:
				rate = 0.125 * float64(1+rng.Intn(6))
			}
			wantProbe, wantHeld, wantChanged := want.step(aliased, rate, turnover)
			var probe, changed bool
			held := p.Held()
			if aliased {
				probe = p.Aliased()
			} else {
				held, changed = p.Clean(rate, turnover)
			}
			if p.Trusted(turnover) {
				trusted = rate
			}
			if probe != wantProbe || held != wantHeld || changed != wantChanged ||
				trusted != want.lastNyquist || p.CleanStreak() != want.cleanStreak || p.Below() != want.hold.Below() {
				t.Fatalf("trial %d step %d (aliased %v rate %v turnover %d): policy probe %v trusted %v held %v changed %v clean %d below %d; parent %v %v %v %v %d %d",
					trial, i, aliased, rate, turnover, probe, trusted, held, changed, p.CleanStreak(), p.Below(),
					wantProbe, want.lastNyquist, wantHeld, wantChanged, want.cleanStreak, want.hold.Below())
			}
		}
	}
}
