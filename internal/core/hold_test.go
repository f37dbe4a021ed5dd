package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/series"
)

// Step inputs of policySteps that are not a clean rate.
const (
	aliased  = -1 // Feed(0, ErrAliased)
	tooShort = -2 // Feed(0, ErrTooShort)
	regrid   = -3 // Regrid()
)

// policyStep feeds one analysis window's answer from the estimator (a clean
// rate, an aliased verdict or a window too short to estimate) or regrids,
// and states the Decision's true flags, the held rate and the clean run and
// counted lower estimates afterwards.
type policyStep struct {
	in           float64
	flags        string // the Decision's true flags, space separated
	held         float64
	clean, below int
}

// runPolicy walks a fresh RatePolicy through steps at one turnover.
func runPolicy(t *testing.T, turnover int, steps []policyStep) {
	t.Helper()
	var p RatePolicy
	for i, st := range steps {
		var d Decision
		var err error
		switch st.in {
		case aliased:
			d, err = p.Feed(0, ErrAliased, turnover)
		case tooShort:
			d, err = p.Feed(0, ErrTooShort, turnover)
		case regrid:
			p.Regrid()
			d.Held = p.Held()
		default:
			d, err = p.Feed(st.in, nil, turnover)
		}
		var flags []string
		for _, f := range []struct {
			on   bool
			name string
		}{{d.Aliased, "aliased"}, {d.Probe, "probe"}, {d.Trusted, "trusted"}, {d.Changed, "changed"}} {
			if f.on {
				flags = append(flags, f.name)
			}
		}
		if got := strings.Join(flags, " "); err != nil || got != st.flags || d.Held != st.held || p.Held() != d.Held ||
			p.CleanStreak() != st.clean || p.Below() != st.below {
			t.Fatalf("step %d (%v): %q held %v (policy %v) clean %d below %d err %v, want %q %v %d %d",
				i, st.in, got, d.Held, p.Held(), p.CleanStreak(), p.Below(), err, st.flags, st.held, st.clean, st.below)
		}
	}
}

// TestRetentionHold walks the held rate, the §4.2 asymmetry RatePolicy
// keeps, through Feed: it rises on the first trusted estimate above it and
// falls only once turnover trusted estimates in a row have been lower. Over
// overlapping windows (turnover > 1) each row's first clean estimate is not
// yet trusted.
func TestRetentionHold(t *testing.T) {
	for _, tc := range []struct {
		name     string
		turnover int
		steps    []policyStep
	}{
		{"raises at once, equal changes nothing", 4, []policyStep{
			{0.5, "", 0, 1, 0},
			{0.5, "trusted changed", 0.5, 2, 0},
			{0.5, "trusted", 0.5, 3, 0},
			{0.75, "trusted changed", 0.75, 4, 0},
			{0.75, "trusted", 0.75, 5, 0},
		}},
		{"turnover-1 lower estimates change nothing, the turnover-th lowers to their max, not their last", 4, []policyStep{
			{1, "", 0, 1, 0},
			{1, "trusted changed", 1, 2, 0},
			{0.5, "trusted", 1, 3, 1},
			{0.75, "trusted", 1, 4, 2},
			{0.25, "trusted", 1, 5, 3},
			{0.5, "trusted changed", 0.75, 6, 0},
			// The wait restarts from the new rate.
			{0.5, "trusted", 0.75, 7, 1},
			{0.5, "trusted", 0.75, 8, 2},
			{0.5, "trusted", 0.75, 9, 3},
			{0.5, "trusted changed", 0.5, 10, 0},
		}},
		{"a higher estimate mid-wait raises and clears the wait", 3, []policyStep{
			{1, "", 0, 1, 0},
			{1, "trusted changed", 1, 2, 0},
			{0.5, "trusted", 1, 3, 1},
			{0.5, "trusted", 1, 4, 2},
			{2, "trusted changed", 2, 5, 0},
			{0.5, "trusted", 2, 6, 1},
			{0.75, "trusted", 2, 7, 2},
			{0.25, "trusted changed", 0.75, 8, 0},
		}},
		{"an equal estimate mid-wait clears the wait and its peak", 3, []policyStep{
			{1, "", 0, 1, 0},
			{1, "trusted changed", 1, 2, 0},
			{0.75, "trusted", 1, 3, 1},
			{0.75, "trusted", 1, 4, 2},
			{1, "trusted", 1, 5, 0},
			{0.25, "trusted", 1, 6, 1},
			{0.25, "trusted", 1, 7, 2},
			{0.25, "trusted changed", 0.25, 8, 0},
		}},
		{"turnover 1 follows every estimate", 1, []policyStep{
			{1, "trusted changed", 1, 1, 0},
			{0.5, "trusted changed", 0.5, 2, 0},
			{0.5, "trusted", 0.5, 3, 0},
			{0.25, "trusted changed", 0.25, 4, 0},
			{0.75, "trusted changed", 0.75, 5, 0},
		}},
		{"turnover 0 and below likewise", -3, []policyStep{
			{1, "trusted changed", 1, 1, 0},
			{0.5, "trusted changed", 0.5, 2, 0},
			{0.75, "trusted changed", 0.75, 3, 0},
		}},
		{"NaN, zero, negative and +Inf never enter", 3, []policyStep{
			{math.NaN(), "", 0, 0, 0},
			{0, "", 0, 0, 0},
			{-0.5, "", 0, 0, 0},
			{math.Inf(1), "", 0, 0, 0},
			{1, "", 0, 1, 0},
			{1, "trusted changed", 1, 2, 0},
			{0.5, "trusted", 1, 3, 1},
			// No verdict restarts the clean run, but is neither counted as a
			// lower estimate nor a reset of the wait.
			{math.NaN(), "", 1, 0, 1},
			{0, "", 1, 0, 1},
			{math.Inf(-1), "", 1, 0, 1},
			{math.Inf(1), "", 1, 0, 1},
			{0.25, "", 1, 1, 1},
			{0.25, "trusted", 1, 2, 2},
			{0.25, "trusted changed", 0.5, 3, 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { runPolicy(t, tc.turnover, tc.steps) })
	}
}

// TestRetentionHoldReset pins the restart and re-probe entries: the held
// rate comes back, the lower estimates counted so far do not.
func TestRetentionHoldReset(t *testing.T) {
	// Regrid keeps the held rate and forgets both runs and the wait: a fresh
	// clean run and a full fresh turnover are needed again, and the
	// forgotten 0.75s do not set the level it lowers to.
	runPolicy(t, 3, []policyStep{
		{1, "", 0, 1, 0},
		{1, "trusted changed", 1, 2, 0},
		{0.75, "trusted", 1, 3, 1},
		{0.75, "trusted", 1, 4, 2},
		{aliased, "aliased", 1, 0, 2},
		{regrid, "", 1, 0, 0},
		{aliased, "aliased", 1, 0, 0},
		{0.5, "", 1, 1, 0},
		{0.5, "trusted", 1, 2, 1},
		{0.5, "trusted", 1, 3, 2},
		{0.5, "trusted changed", 0.5, 4, 0},
	})

	// Restore brings back the held rate and the clean run, not the wait.
	var p RatePolicy
	for _, r := range []float64{1, 1, 0.5, 0.5} {
		p.Feed(r, nil, 8)
	}
	p.Restore(0.5, 1)
	if p.Below() != 0 {
		t.Fatalf("after restore: below %d, want 0", p.Below())
	}
	if d, _ := p.Feed(0.75, nil, 8); d.Held != 0.75 || !d.Changed || p.CleanStreak() != 2 {
		t.Fatalf("after restore: %+v clean %d, want the second clean verdict trusted", d, p.CleanStreak())
	}
	for _, bad := range []float64{math.NaN(), 0, -2, math.Inf(1)} {
		p.Restore(bad, -3)
		if p.Held() != 0 || p.CleanStreak() != 0 {
			t.Fatalf("restoring %v: held %v clean %d, want nothing held", bad, p.Held(), p.CleanStreak())
		}
	}
}

// TestRatePolicy walks the verdicts: aliased ones, which probe only once
// persistent and never touch the hold, windows too short to estimate,
// which are no verdict, and the trust a clean run earns.
func TestRatePolicy(t *testing.T) {
	for _, tc := range []struct {
		name     string
		turnover int
		steps    []policyStep
	}{
		{"aliased once is a blip, twice probes, a clean verdict between starts over", 1, []policyStep{
			{aliased, "aliased", 0, 0, 0},
			{aliased, "aliased probe", 0, 0, 0},
			{aliased, "aliased probe", 0, 0, 0},
			{0.5, "trusted changed", 0.5, 1, 0},
			{aliased, "aliased", 0.5, 0, 0},
			{0.5, "trusted", 0.5, 1, 0},
			{aliased, "aliased", 0.5, 0, 0},
			{aliased, "aliased probe", 0.5, 0, 0},
		}},
		{"disjoint windows trust the first clean estimate and follow every one", 1, []policyStep{
			{0.5, "trusted changed", 0.5, 1, 0},
			{0.25, "trusted changed", 0.25, 2, 0},
			{aliased, "aliased", 0.25, 0, 0},
			{0.75, "trusted changed", 0.75, 1, 0},
			{0.75, "trusted", 0.75, 2, 0},
		}},
		{"a window too short is no verdict: both runs start over, the hold is untouched", 1, []policyStep{
			{0.5, "trusted changed", 0.5, 1, 0},
			{aliased, "aliased", 0.5, 0, 0},
			{tooShort, "", 0.5, 0, 0},
			{aliased, "aliased", 0.5, 0, 0},
			{0.25, "trusted changed", 0.25, 1, 0},
			{tooShort, "", 0.25, 0, 0},
			{0.125, "trusted changed", 0.125, 1, 0},
		}},
		{"overlapping windows trust the second", 4, []policyStep{
			{0.5, "", 0, 1, 0},
			{0.75, "trusted changed", 0.75, 2, 0},
			{aliased, "aliased", 0.75, 0, 0},
			{1, "", 0.75, 1, 0},
			{1, "trusted changed", 1, 2, 0},
		}},
		{"aliased verdicts neither count toward nor reset the hold's wait", 3, []policyStep{
			{1, "", 0, 1, 0},
			{1, "trusted changed", 1, 2, 0},
			{0.5, "trusted", 1, 3, 1},
			{aliased, "aliased", 1, 0, 1},
			{aliased, "aliased probe", 1, 0, 1},
			{0.25, "", 1, 1, 1}, // first of a new clean run: not offered
			{0.25, "trusted", 1, 2, 2},
			{0.375, "trusted changed", 0.5, 3, 0}, // the third lower one: down to their max
		}},
		{"a rate that is none is no verdict: both runs start over, the hold is untouched", 4, []policyStep{
			{1, "", 0, 1, 0},
			{1, "trusted changed", 1, 2, 0},
			{0.5, "trusted", 1, 3, 1},
			{0, "", 1, 0, 1},
			{math.NaN(), "", 1, 0, 1},
			{aliased, "aliased", 1, 0, 1},
			{math.Inf(1), "", 1, 0, 1},
			{aliased, "aliased", 1, 0, 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { runPolicy(t, tc.turnover, tc.steps) })
	}

	// Any other error goes back to the caller with nothing fed: the aliased
	// run it interrupts goes on.
	var p RatePolicy
	p.Feed(0.5, nil, 1)
	p.Feed(0, ErrAliased, 1)
	other := fmt.Errorf("poll: %w", errors.New("device unreachable"))
	if d, err := p.Feed(0.25, other, 1); err != other || d != (Decision{Held: 0.5}) {
		t.Fatalf("Feed with another error: %+v, %v; want nothing but the held rate, and the error", d, err)
	}
	if d, _ := p.Feed(0, ErrAliased, 1); !d.Probe {
		t.Fatal("an error the policy returned broke the aliased run")
	}
	// A wrapped ErrAliased is still an aliased verdict.
	if d, err := p.Feed(0, fmt.Errorf("window 3: %w", ErrAliased), 1); err != nil || !d.Probe {
		t.Fatalf("wrapped ErrAliased: %+v, %v; want a persistent aliased verdict", d, err)
	}
}

// parentHold is the retention hold RatePolicy absorbed, transcribed from
// commit febcc4b: a rate that rises on the first estimate above it and
// falls, to the highest of them, only once turnover estimates in a row
// have all been lower.
type parentHold struct {
	rate, peak float64
	below      int32
}

func (h *parentHold) offer(r float64, turnover int) (rate float64, changed bool) {
	if !(r > 0) || math.IsInf(r, 1) {
		return h.rate, false
	}
	if r >= h.rate {
		changed = r != h.rate
		h.rate, h.peak, h.below = r, 0, 0
		return r, changed
	}
	h.below++
	h.peak = max(h.peak, r)
	if int(h.below) < turnover {
		return h.rate, false
	}
	h.rate, h.peak, h.below = h.peak, 0, 0
	return h.rate, true
}

// parentRule is the rule RatePolicy replaced, transcribed from the parent
// commit: monitor's observeLocked/handOver (a clean-streak counter in
// front of the hold) and fleet.Controller's aliased streak.
type parentRule struct {
	cleanStreak, streak int
	lastNyquist         float64
	hold                parentHold
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
			held, changed = p.hold.offer(rate, turnover)
			return probe, held, changed
		}
	} else {
		p.cleanStreak = 0
	}
	return probe, p.hold.rate, false
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
				want.hold = parentHold{rate: want.hold.rate}
				continue
			case r < 0.22:
				aliased = true
			case r < 0.27:
				rate = 0
			default:
				rate = 0.125 * float64(1+rng.Intn(6))
			}
			wantProbe, wantHeld, wantChanged := want.step(aliased, rate, turnover)
			var err error
			if aliased {
				err = ErrAliased
			}
			d, err := p.Feed(rate, err, turnover)
			if d.Trusted {
				trusted = rate
			}
			if err != nil || d.Aliased != aliased || d.Probe != wantProbe || d.Held != wantHeld || d.Changed != wantChanged ||
				trusted != want.lastNyquist || p.CleanStreak() != want.cleanStreak || p.Below() != int(want.hold.below) {
				t.Fatalf("trial %d step %d (aliased %v rate %v turnover %d): policy %+v trusted %v clean %d below %d err %v; parent %v %v %v %v %d %d",
					trial, i, aliased, rate, turnover, d, trusted, p.CleanStreak(), p.Below(), err,
					wantProbe, want.lastNyquist, wantHeld, wantChanged, want.cleanStreak, want.hold.below)
			}
		}
	}
}

// parentPollRule is fleet.Controller.Step's poll-rate rule at the parent
// commit, unclamped: on an aliased window a probe doubles the rate and
// anything else holds it; on a clean one the rate falls to Headroom ×
// estimate or holds. The controller only ever saw trusted clean windows
// (its rounds are disjoint) with a positive, finite estimate.
func parentPollRule(aliased, probe bool, current, estimate float64) float64 {
	switch {
	case aliased && probe:
		return 2 * current
	case aliased:
		return current
	}
	return min(series.Headroom*estimate, current)
}

// FuzzRatePolicyPoll drives random verdict sequences through a policy and
// moves a poll rate by Decision.PollRate after each, as the controller
// does: the rate rises only on a probe, and then exactly doubles; a trusted
// clean window never raises it; where the controller could see the window
// the rule is its parent's; and the policy's alias streak is the parent's.
// Between windows, Standing reports the same run and probe, and trusts an
// estimate from the window that trusted it to the next probe.
// Each step is three bytes: the verdict, the estimate and the turnover.
func FuzzRatePolicyPoll(f *testing.F) {
	f.Add(1.0, []byte{3, 50, 1, 0, 0, 1, 0, 0, 1, 3, 90, 1, 3, 20, 1})
	f.Add(0.25, []byte{3, 10, 4, 3, 40, 4, 0, 0, 4, 1, 0, 4, 3, 8, 4, 4, 1, 4, 2, 30, 4, 0, 0, 4, 0, 0, 4})
	f.Add(60.0, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 255, 0, 3, 1, 7})
	f.Fuzz(func(t *testing.T, current float64, script []byte) {
		if !(current > 0) || math.IsInf(current, 1) {
			return
		}
		var p RatePolicy
		var parent parentRule
		standing := false
		for i := 0; len(script) >= 3; i, script = i+1, script[3:] {
			rate, turnover := float64(script[1])/64, int(script[2]%8)
			var err error
			switch script[0] % 5 {
			case 0:
				err = ErrAliased
			case 1:
				err = ErrTooShort
			case 2:
				err = errors.New("device unreachable")
			case 4:
				rate = []float64{math.NaN(), math.Inf(1), -rate}[script[1]%3]
			}
			d, ferr := p.Feed(rate, err, turnover)
			if ferr != nil {
				if script[0]%5 != 2 {
					t.Fatalf("step %d: Feed(%v, %v) failed: %v", i, rate, err, ferr)
				}
				continue
			}
			clean, parentRate := err == nil && holdable(rate), 0.0
			if clean {
				parentRate = rate
			}
			probe, _, _ := parent.step(d.Aliased, parentRate, turnover)
			next := d.PollRate(current, rate)
			standing = (standing || d.Trusted) && !d.Probe
			want := Decision{Held: d.Held, Aliased: parent.streak > 0, Probe: probe, Trusted: standing}
			switch {
			case p.Standing() != want:
				t.Fatalf("step %d: standing %+v, want %+v", i, p.Standing(), want)
			case d.Probe && next != 2*current, !d.Probe && next > current:
				t.Fatalf("step %d (%+v): rate %v → %v: only a probe raises, and then exactly doubles", i, d, current, next)
			case d.Trusted && next > current:
				t.Fatalf("step %d: a trusted clean estimate %v raised the rate %v → %v", i, rate, current, next)
			case d.Probe != probe || p.AliasStreak() != parent.streak:
				t.Fatalf("step %d: probe %v, streak %d; the parent's rule %v, %d", i, d.Probe, p.AliasStreak(), probe, parent.streak)
			case (d.Aliased || clean && turnover <= 1) && next != parentPollRule(d.Aliased, probe, current, rate):
				t.Fatalf("step %d (%+v): rate %v → %v, the controller's parent rule %v", i, d, current, next, parentPollRule(d.Aliased, probe, current, rate))
			}
			current = min(max(next, 1e-6), 1e6)
		}
	})
}

// TestStreamAliasingStreak feeds a signal whose energy sits entirely at
// the top of the analyzed band — the aliased signature — through a stream
// and every update through a RatePolicy: the policy's streak counts the
// aliased windows, and the advised interval holds on the first, a blip,
// and is exactly half the poll interval from the second on.
func TestStreamAliasingStreak(t *testing.T) {
	st, err := NewStreamEstimator(StreamConfig{Interval: time.Second, WindowSamples: 64})
	if err != nil {
		t.Fatal(err)
	}
	var p RatePolicy
	emitted := 0
	for i := 0; i < 200; i++ {
		up := st.Push(float64(1 - 2*(i%2)))
		if up == nil {
			continue
		}
		emitted++
		if !errors.Is(up.Err, ErrAliased) || !up.Result.Aliased {
			t.Fatalf("emission %d: want ErrAliased, got %v", emitted, up.Err)
		}
		d, err := p.Feed(up.Result.NyquistRate, up.Err, 64)
		want := time.Second / 2
		if emitted < Persistence {
			want = time.Second
		}
		if got := d.PollInterval(time.Second, up.Result.NyquistRate); err != nil || p.AliasStreak() != emitted || got != want {
			t.Fatalf("emission %d: streak %d, advised %v (%v), want %v", emitted, p.AliasStreak(), got, err, want)
		}
	}
	if emitted < Persistence {
		t.Fatal("too few aliased emissions")
	}
}

// TestStreamSweetSpot checks a trusted clean estimate advises the constant
// 1.2 headroom on the estimated rate: one window over the whole trace is a
// disjoint window, trusted at once.
func TestStreamSweetSpot(t *testing.T) {
	u := dayTrace(t, 1440, time.Minute, 0, 4)
	st, err := NewStreamEstimator(StreamConfig{Interval: time.Minute, WindowSamples: u.Len()})
	if err != nil {
		t.Fatal(err)
	}
	var last *StreamUpdate
	for _, v := range u.Values {
		if up := st.Push(v); up != nil {
			last = up
		}
	}
	if last == nil {
		t.Fatal("no emission after a full window")
	}
	var p RatePolicy
	d, err := p.Feed(last.Result.NyquistRate, last.Err, 1)
	rate := last.Result.NyquistRate
	if err != nil || !d.Trusted || d.PollRate(1.0/60, rate) != 1.2*rate {
		t.Fatalf("decision %+v (%v): poll rate %v, want %v", d, err, d.PollRate(1.0/60, rate), 1.2*rate)
	}
	want := time.Duration(float64(time.Second) / (1.2 * rate))
	if got := d.PollInterval(time.Minute, rate); got < want-1 || got > want+1 {
		t.Fatalf("advised %v, want %v", got, want)
	}
}
