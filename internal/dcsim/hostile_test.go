package dcsim

import (
	"strings"
	"testing"
	"time"
)

func buildHostile(t *testing.T, name string, seed int64, devices int) *Scenario {
	t.Helper()
	sc, err := BuildScenario(name, seed, devices)
	if err != nil {
		t.Fatalf("BuildScenario(%s): %v", name, err)
	}
	if !sc.Spec.Hostile || sc.Hostile == nil {
		t.Fatalf("scenario %s not marked hostile (spec=%v hostile=%v)", name, sc.Spec.Hostile, sc.Hostile)
	}
	return sc
}

func TestHostileCatalogPresent(t *testing.T) {
	want := map[string]bool{"cardinality": true, "backfill": true, "clockskew": true, "podchurn": true}
	hostile := 0
	for _, sp := range Scenarios() {
		if !sp.Hostile {
			if want[sp.Name] {
				t.Errorf("regime %s lost its Hostile mark", sp.Name)
			}
			continue
		}
		hostile++
		if !want[sp.Name] {
			continue
		}
		delete(want, sp.Name)
	}
	if hostile < 4 {
		t.Errorf("catalog has %d hostile regimes, want >= 4", hostile)
	}
	for name := range want {
		t.Errorf("hostile regime %s missing from catalog", name)
	}
}

func TestWireGenDeterministic(t *testing.T) {
	for _, sp := range Scenarios() {
		if !sp.Hostile {
			continue
		}
		t.Run(sp.Name, func(t *testing.T) {
			a := NewWireGen(buildHostile(t, sp.Name, 7, 12), WireConfig{})
			b := NewWireGen(buildHostile(t, sp.Name, 7, 12), WireConfig{})
			for r := 0; r < 3; r++ {
				ra, rb := a.Round(), b.Round()
				if len(ra) != len(rb) {
					t.Fatalf("round %d: %d vs %d samples", r, len(ra), len(rb))
				}
				for i := range ra {
					if ra[i] != rb[i] {
						t.Fatalf("round %d sample %d differs: %+v vs %+v", r, i, ra[i], rb[i])
					}
				}
			}
			// A different seed must change the traffic, not just the ids.
			c := NewWireGen(buildHostile(t, sp.Name, 8, 12), WireConfig{})
			rc := c.Round()
			ra := NewWireGen(buildHostile(t, sp.Name, 7, 12), WireConfig{})
			if first := ra.Round(); len(rc) > 0 && len(first) > 0 && rc[0].Value == first[0].Value {
				t.Errorf("seed 7 and 8 produced the same first value %v", rc[0].Value)
			}
		})
	}
}

// TestWireBackfillIsLateAndRejectable checks every Late sample ships
// after an on-time sample with a newer wire timestamp from the same
// device — the property that makes a strict-append store reject exactly
// the late arrivals.
func TestWireBackfillIsLateAndRejectable(t *testing.T) {
	sc := buildHostile(t, "backfill", 11, 12)
	g := NewWireGen(sc, WireConfig{})
	newest := make(map[int]time.Time)
	late, onTime := 0, 0
	for r := 0; r < 4; r++ {
		for _, ws := range g.Round() {
			if ws.Late {
				late++
				if !ws.Time.Before(newest[ws.Device]) {
					t.Fatalf("late sample for device %d at %v is not behind newest %v", ws.Device, ws.Time, newest[ws.Device])
				}
				continue
			}
			onTime++
			if !newest[ws.Device].Before(ws.Time) {
				t.Fatalf("on-time sample for device %d at %v does not advance newest %v", ws.Device, ws.Time, newest[ws.Device])
			}
			newest[ws.Device] = ws.Time
		}
	}
	if late == 0 {
		t.Fatal("backfill regime emitted no late samples")
	}
	total := late + onTime
	if frac := float64(late) / float64(total); frac < 0.1 || frac > 0.4 {
		t.Errorf("late fraction %.2f far from BackfillFraction %.2f", frac, sc.Hostile.BackfillFraction)
	}
}

// TestWireChurnRotatesIDs checks churned regimes rotate ids on the epoch
// boundary and that DistinctIDs matches the traffic.
func TestWireChurnRotatesIDs(t *testing.T) {
	for _, name := range []string{"cardinality", "podchurn"} {
		t.Run(name, func(t *testing.T) {
			sc := buildHostile(t, name, 5, 8)
			g := NewWireGen(sc, WireConfig{})
			const rounds = 3
			ids := make(map[string]bool)
			churned := 0
			for r := 0; r < rounds; r++ {
				for _, ws := range g.Round() {
					ids[ws.ID] = true
					if strings.Contains(ws.ID, "#e") {
						churned++
					}
				}
			}
			if churned == 0 {
				t.Fatal("no churned ids on the wire")
			}
			want := g.DistinctIDs(rounds)
			if len(ids) != want {
				t.Errorf("distinct ids on wire %d, DistinctIDs says %d", len(ids), want)
			}
			if len(ids) <= len(sc.Fleet.Devices) {
				t.Errorf("churn produced only %d ids for %d devices", len(ids), len(sc.Fleet.Devices))
			}
		})
	}
}

// TestWireClockStepChangesCadence checks the coordinated step: wire time
// jumps forward (never backward — the store must keep accepting) and the
// post-step gap shrinks by StepRateFactor, which is what forces the
// estimator re-probe.
func TestWireClockStepChangesCadence(t *testing.T) {
	sc := buildHostile(t, "clockskew", 3, 4)
	g := NewWireGen(sc, WireConfig{})
	h := sc.Hostile
	stepAt := int(h.StepAtFraction * float64(sc.Spec.MaxRounds*g.spr))
	var times []time.Time
	for r := 0; r < sc.Spec.MaxRounds; r++ {
		for _, ws := range g.Round() {
			if ws.Device == 0 {
				times = append(times, ws.Time)
			}
		}
	}
	if len(times) <= stepAt+2 {
		t.Fatalf("only %d samples for device 0, need past step index %d", len(times), stepAt)
	}
	for i := 1; i < len(times); i++ {
		if !times[i].After(times[i-1]) {
			t.Fatalf("wire time not strictly increasing at sample %d: %v -> %v", i, times[i-1], times[i])
		}
	}
	pre := times[stepAt-1].Sub(times[stepAt-2]).Seconds()
	jump := times[stepAt].Sub(times[stepAt-1]).Seconds()
	post := times[stepAt+2].Sub(times[stepAt+1]).Seconds()
	if jump < h.StepSeconds {
		t.Errorf("step gap %.1fs, want >= StepSeconds %.1fs", jump, h.StepSeconds)
	}
	if ratio := post / pre; ratio < 0.9*h.StepRateFactor || ratio > 1.1*h.StepRateFactor {
		t.Errorf("post/pre cadence ratio %.3f, want ~StepRateFactor %.2f", ratio, h.StepRateFactor)
	}
}

// TestWireSkipRoundsResumes checks a generator that skipped n rounds
// continues exactly where a continuous generator would be — the property
// the chaos harness leans on to resume a scenario after a restart.
func TestWireSkipRoundsResumes(t *testing.T) {
	for _, name := range []string{"backfill", "clockskew"} {
		t.Run(name, func(t *testing.T) {
			cont := NewWireGen(buildHostile(t, name, 17, 6), WireConfig{})
			skip := NewWireGen(buildHostile(t, name, 17, 6), WireConfig{})
			cont.Round()
			cont.Round()
			skip.SkipRounds(2)
			a, b := cont.Round(), skip.Round()
			if len(a) != len(b) {
				t.Fatalf("round 3 length differs: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round 3 sample %d differs after SkipRounds: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestHostileDevicesAreOversampled guards the fleet-builder invariant:
// hostile regimes stress the wire, so every device must be estimable
// from its own clean traffic.
func TestHostileDevicesAreOversampled(t *testing.T) {
	for _, sp := range Scenarios() {
		if !sp.Hostile {
			continue
		}
		sc := buildHostile(t, sp.Name, 101, 48)
		for _, d := range sc.Fleet.Devices {
			if d.PollRate() <= d.TrueNyquist {
				t.Errorf("%s: device %s polls at %.3g Hz below its true Nyquist %.3g Hz", sp.Name, d.ID, d.PollRate(), d.TrueNyquist)
			}
			if d.TrueNyquist < 4*DiurnalFreq {
				t.Errorf("%s: device %s true Nyquist %.3g Hz is below the harmonic floor", sp.Name, d.ID, d.TrueNyquist)
			}
		}
	}
}
