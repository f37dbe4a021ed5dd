package dcsim

import (
	"fmt"
	"math/rand"
	"time"
)

// WireGen turns a scenario's device population into the wire traffic an
// ingest server would actually receive, applying the regime's hostile
// transforms: id churn, backfill lag, clock drift and steps. It is the
// single source of truth for hostile traffic — the in-process harness
// (fleet.RunHostile) and monitorsim's push mode both draw from it, so a
// chaos run against a live nyquistd replays byte-for-byte the same
// samples the golden reports pinned.
//
// The generator is deterministic in the scenario: same (name, seed,
// devices) and the same WireConfig produce the identical sample stream.
// For a benign scenario (Hostile == nil) every transform is the
// identity and the wire is each device polled on its production cadence.

// WireSample is one sample as it appears on the wire.
type WireSample struct {
	// Device indexes the originating device in Scenario.Fleet.Devices.
	Device int
	// ID is the wire series id — the device id, plus an epoch suffix
	// when the regime churns names.
	ID string
	// Time is the wire timestamp (after skew and step transforms).
	Time time.Time
	// Value is the device's measured reading at the sample's true time.
	Value float64
	// Late marks a backfilled sample: it ships after newer points from
	// the same device, so a strict-append store must reject it.
	Late bool
}

// WireConfig parameterizes a WireGen.
type WireConfig struct {
	// SamplesPerRound is how many samples each device contributes per
	// Round call (0 = 64).
	SamplesPerRound int
}

// wireEpoch anchors wire time zero.
var wireEpoch = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// DefaultSamplesPerRound is the per-device round size hostile bars and
// golden reports are calibrated against.
const DefaultSamplesPerRound = 64

type heldSample struct {
	release int // device sample index at which the withheld point ships
	ws      WireSample
}

type wireDev struct {
	dev      *Device
	rng      *rand.Rand
	churns   bool
	interval float64 // current true poll cadence, seconds
	cursor   float64 // next sample's signal time
	idx      int     // samples generated so far
	drift    float64 // clock-rate error epsilon
	stepAt   int     // sample index of the coordinated step (-1 = none)
	stepped  bool
	skewOff  float64 // accumulated wire-clock offset, seconds
	held     []heldSample

	// Backfill burst state: burstLeft samples of the current burst
	// remain withheld; cooldown on-time samples must pass before a new
	// burst may start (the invariant that makes every late release land
	// strictly behind an accepted newer point).
	burstLeft int
	cooldown  int
}

// WireGen generates rounds of wire traffic for one scenario.
type WireGen struct {
	sc   *Scenario
	spr  int
	devs []*wireDev
}

// NewWireGen builds the generator for a scenario.
func NewWireGen(s *Scenario, cfg WireConfig) *WireGen {
	spr := cfg.SamplesPerRound
	if spr <= 0 {
		spr = DefaultSamplesPerRound
	}
	g := &WireGen{sc: s, spr: spr}
	h := s.Hostile
	n := len(s.Fleet.Devices)
	rng := rand.New(rand.NewSource(s.Seed ^ int64(fnvName(s.Spec.Name+"/wire"))))
	churnCount := 0
	if h != nil && h.ChurnEvery > 0 {
		churnCount = int(h.ChurnFraction*float64(n) + 0.5)
	}
	stepAt := -1
	if h != nil && h.StepAtFraction > 0 {
		stepAt = int(h.StepAtFraction * float64(s.Spec.MaxRounds*spr))
	}
	for i, d := range s.Fleet.Devices {
		wd := &wireDev{
			dev:      d,
			rng:      rand.New(rand.NewSource(rng.Int63())),
			interval: d.PollInterval.Seconds(),
			cursor:   s.PhaseOffset[i],
			stepAt:   stepAt,
		}
		// Spread the churners evenly across the fleet so churned and
		// stable ids interleave in every metric family.
		if churnCount > 0 && (i+1)*churnCount/n > i*churnCount/n {
			wd.churns = true
		}
		if h != nil && h.SkewDriftMax > 0 {
			wd.drift = h.SkewDriftMax * (2*wd.rng.Float64() - 1)
		}
		g.devs = append(g.devs, wd)
	}
	return g
}

// Round generates the next round of traffic: SamplesPerRound samples per
// device in device order, with any due backfilled samples released in
// between. Withheld samples whose release index falls beyond the run
// simply never ship, as a crashed exporter's queue never does.
func (g *WireGen) Round() []WireSample {
	h := g.sc.Hostile
	out := make([]WireSample, 0, g.spr*len(g.devs))
	for di, wd := range g.devs {
		for k := 0; k < g.spr; k++ {
			for len(wd.held) > 0 && wd.held[0].release <= wd.idx {
				out = append(out, wd.held[0].ws)
				wd.held = wd.held[1:]
			}
			srcIdx := wd.idx
			ws := g.sample(di, wd)
			if h != nil && h.BackfillFraction > 0 && wd.withhold(h) {
				ws.Late = true
				wd.held = append(wd.held, heldSample{release: srcIdx + backfillLag(h), ws: ws})
				continue
			}
			out = append(out, ws)
		}
	}
	return out
}

// backfillLag returns the effective release lag; it always exceeds the
// burst length (withhold relies on that for the always-rejectable
// invariant).
func backfillLag(h *HostileSpec) int {
	lag := h.BackfillLag
	if lag <= 0 {
		lag = 16
	}
	if burst := h.BackfillBurst; lag <= burst {
		lag = burst + 1
	}
	return lag
}

// withhold decides whether the current sample joins a backfill burst.
// Bursts of BackfillBurst samples start at a rate tuned so the long-run
// withheld fraction is BackfillFraction, with a cooldown of lag on-time
// samples after each burst: when a burst's samples release (lag > burst
// samples after they were drawn), at least one newer on-time point has
// already been accepted, so a strict-append store rejects every late
// arrival.
func (wd *wireDev) withhold(h *HostileSpec) bool {
	if wd.burstLeft > 0 {
		wd.burstLeft--
		if wd.burstLeft == 0 {
			wd.cooldown = backfillLag(h)
		}
		return true
	}
	if wd.cooldown > 0 {
		wd.cooldown--
		return false
	}
	burst := h.BackfillBurst
	if burst <= 0 {
		burst = 1
	}
	lag := backfillLag(h)
	// Expected cycle = burst + cooldown + 1/p; solve for the start
	// probability p that makes burst/cycle equal BackfillFraction.
	p := 1.0
	if wait := float64(burst)*(1/h.BackfillFraction-1) - float64(lag); wait > 1 {
		p = 1 / wait
	}
	if wd.rng.Float64() >= p {
		return false
	}
	wd.burstLeft = burst - 1
	if wd.burstLeft == 0 {
		wd.cooldown = lag
	}
	return true
}

// sample produces the wire sample at the device's current cursor and
// advances the device.
func (g *WireGen) sample(di int, wd *wireDev) WireSample {
	h := g.sc.Hostile
	if wd.stepAt >= 0 && !wd.stepped && wd.idx >= wd.stepAt {
		wd.stepped = true
		wd.skewOff += h.StepSeconds
		if h.StepRateFactor > 0 {
			wd.interval *= h.StepRateFactor
		}
	}
	id := wd.dev.ID
	if wd.churns && h.ChurnEvery > 0 {
		id = fmt.Sprintf("%s#e%04d", id, wd.idx/h.ChurnEvery)
	}
	wire := wd.cursor*(1+wd.drift) + wd.skewOff
	ws := WireSample{
		Device: di,
		ID:     id,
		Time:   wireEpoch.Add(secondsToDuration(wire)),
		Value:  wd.dev.At(wd.cursor),
	}
	wd.cursor += wd.interval
	wd.idx++
	return ws
}

// SkipRounds advances the generator past n rounds without emitting them,
// leaving churn epochs, skew state and backfill queues exactly as if the
// rounds had been sent. Push clients use it to resume a scenario
// mid-stream after a restart.
func (g *WireGen) SkipRounds(n int) {
	for i := 0; i < n; i++ {
		g.Round()
	}
}

// DistinctIDs returns how many distinct wire ids the first rounds rounds
// of traffic carry — the denominator of a hostile regime's
// estimator-capacity budget.
func (g *WireGen) DistinctIDs(rounds int) int {
	h := g.sc.Hostile
	total := rounds * g.spr
	n := 0
	for _, wd := range g.devs {
		if wd.churns && h != nil && h.ChurnEvery > 0 {
			n += (total + h.ChurnEvery - 1) / h.ChurnEvery
		} else {
			n++
		}
	}
	return n
}
