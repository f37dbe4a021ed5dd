package dcsim

import (
	"math/rand"
)

// Hostile regimes: workloads that attack the ingest path rather than the
// control loop. The device populations are deliberately benign — clean,
// oversampled harmonic signals any estimator should nail — because the
// point of these regimes is the wire, not the spectrum: ids that churn
// through the MaxSeries cap, samples that arrive out of order against a
// strict-append store, clocks that drift and step. WireGen applies those
// transforms; fleet.RunHostile enforces the bars.

// HostileSpec carries the wire-transform knobs of one hostile regime.
// Zero-valued knobs disable their transform, so each regime enables
// exactly the hostility it is named for.
type HostileSpec struct {
	// ChurnEvery rotates a churning device's wire id every ChurnEvery
	// samples (0 = ids are stable). Rotated ids get an "#e%04d" epoch
	// suffix, modelling pod restarts renaming the exporting target.
	ChurnEvery int
	// ChurnFraction is the fraction of devices whose ids churn.
	ChurnFraction float64
	// BackfillFraction is the long-run fraction of samples withheld and
	// shipped late (0 = strictly in-order wire).
	BackfillFraction float64
	// BackfillLag is how many samples pass before a withheld sample
	// ships. By then newer points have landed (the generator enforces a
	// post-burst on-time cooldown of BackfillLag samples, and the lag
	// exceeds the burst), so a strict-append store must reject every
	// late arrival — the regime asserts that rejection is accounted
	// truthfully, not silently absorbed.
	BackfillLag int
	// BackfillBurst withholds samples in contiguous runs of this length
	// (0 = single samples). Real backfill is bursty — an exporter wedges
	// and flushes its queue — and a contiguous hole costs the estimator
	// one phase discontinuity per burst rather than one per sample.
	BackfillBurst int
	// SkewDriftMax bounds each device's clock-rate error: wire
	// timestamps run at (1+e) true time with e drawn uniformly from
	// [-SkewDriftMax, SkewDriftMax] per device.
	SkewDriftMax float64
	// StepAtFraction places a coordinated clock step at this fraction of
	// the regime's nominal run (MaxRounds of wire traffic); 0 = no step.
	StepAtFraction float64
	// StepSeconds is the size of the coordinated forward step.
	StepSeconds float64
	// StepRateFactor multiplies every device's poll cadence at the step
	// (0 = cadence unchanged). A factor below 1/DriftFactor lands every
	// post-step gap outside the estimator's drift band, so a correct
	// estimator must re-probe its interval lock instead of retuning on
	// garbage gaps.
	StepRateFactor float64
}

// hostileCatalog appends the wire-hostile regimes to the scenario
// catalog. Same treatment as the benign six: seeded, deterministic in
// (name, seed, devices), golden-pinned.
var hostileCatalog = []catalogEntry{
	{
		spec: ScenarioSpec{
			Name:           "cardinality",
			Description:    "cardinality explosion: short-lived series churning through the MaxSeries cap",
			DefaultDevices: 48,
			MaxRounds:      6,
			QualityBar:     0.5,
			BudgetFraction: 0.25,
			Hostile:        true,
		},
		build: buildCardinality,
	},
	{
		spec: ScenarioSpec{
			Name:           "backfill",
			Description:    "backfill storm: a quarter of the wire arrives out of order against the strict-append store",
			DefaultDevices: 48,
			MaxRounds:      6,
			QualityBar:     0.5,
			BudgetFraction: 1,
			Hostile:        true,
		},
		build: buildBackfill,
	},
	{
		spec: ScenarioSpec{
			Name:           "clockskew",
			Description:    "per-device clock drift plus a coordinated step: the estimator must re-probe, not retune on garbage",
			DefaultDevices: 48,
			MaxRounds:      8,
			QualityBar:     0.5,
			BudgetFraction: 1,
			Hostile:        true,
		},
		build: buildClockSkew,
	},
	{
		spec: ScenarioSpec{
			Name:           "podchurn",
			Description:    "pod-churn renaming: every series id rotates mid-run, stressing inventory and estimator state",
			DefaultDevices: 48,
			MaxRounds:      6,
			QualityBar:     0.5,
			BudgetFraction: 0.75,
			Hostile:        true,
		},
		build: buildPodChurn,
	},
}

func init() {
	scenarioCatalog = append(scenarioCatalog, hostileCatalog...)
}

// buildHostileFleet populates s with oversampled harmonic devices whose
// whole band is resolvable inside the ingest estimator's short window.
// The poll cadence is the metric's production interval; the band edge
// sits at 10-25 % of the poll rate (comfortably oversampled, never
// aliased) and the fundamental at a quarter of the band edge, so every
// component completes cycles within a 64-sample window. Sensors are
// ideal (no measurement noise): hostile regimes must not smuggle in
// estimation hardness — a device an estimator cannot nail from clean
// in-order traffic would make the quality bar measure the wrong thing.
// The hostility lives entirely in the wire transform.
func buildHostileFleet(s *Scenario, rng *rand.Rand) error {
	n := len(s.PhaseOffset)
	for i := 0; i < n; i++ {
		m := metricAt(i)
		p, iv := pollIntervalFor(m, rng)
		bl := (0.1 + 0.15*rng.Float64()) / iv
		base, err := NewHarmonicSeries(rng, bl/2, bl, p.Swing, 2)
		if err != nil {
			return err
		}
		s.addDevice(i, m, p, base, iv, 0)
	}
	return nil
}

// buildCardinality: half the fleet rotates its wire id every 8 samples,
// so a full run carries several times more distinct ids than the
// estimator's capacity budget admits. The stable half must keep its
// estimates while the churn floods the cap; LRU eviction must recycle
// slots from dead epochs instead of rejecting forever.
func buildCardinality(s *Scenario, rng *rand.Rand) error {
	s.Hostile = &HostileSpec{ChurnEvery: 8, ChurnFraction: 0.5}
	return buildHostileFleet(s, rng)
}

// buildBackfill: a quarter of every device's samples are withheld in
// 16-sample bursts and shipped 24 samples late, landing behind points
// the store has already accepted. Strict append must reject exactly the
// late arrivals and the accounting must say so.
func buildBackfill(s *Scenario, rng *rand.Rand) error {
	s.Hostile = &HostileSpec{BackfillFraction: 0.25, BackfillLag: 24, BackfillBurst: 16}
	return buildHostileFleet(s, rng)
}

// buildClockSkew: every device's wire clock runs at an independent rate
// error of up to 2 %, and halfway through the run all clocks step
// forward an hour while the poll cadence drops to 0.4x — gaps land
// outside the estimator's drift band, forcing an interval re-probe. The
// trusted pre-step estimate must survive the re-probe and a fresh clean
// estimate must emerge after it.
func buildClockSkew(s *Scenario, rng *rand.Rand) error {
	s.Hostile = &HostileSpec{
		SkewDriftMax:   0.02,
		StepAtFraction: 0.5,
		StepSeconds:    3600,
		StepRateFactor: 0.4,
	}
	return buildHostileFleet(s, rng)
}

// buildPodChurn: every device's id rotates every 128 samples — two
// generations of the whole fleet's names mid-run. Old epochs go idle and
// must age out of the estimator; each new epoch must warm up to a clean
// estimate from scratch.
func buildPodChurn(s *Scenario, rng *rand.Rand) error {
	s.Hostile = &HostileSpec{ChurnEvery: 128, ChurnFraction: 1}
	return buildHostileFleet(s, rng)
}
