package dcsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dsp"
)

// The scenario engine: seeded, named workload regimes that stress the
// estimate→poll→retain control loop in qualitatively different ways. A
// production fleet is never one clean trace — it is diurnal rhythms with
// slow drift, microbursts riding quiet links, failed sensors flatlining,
// signals spread across four decades of band limit, whole racks moving in
// lockstep, and pollers whose phases were never synchronized. Each
// Scenario builds a deterministic device population exhibiting exactly
// one of those regimes, together with the quality bar and convergence
// bound a closed-loop controller must meet on it.

// ScenarioSpec names and bounds one workload regime of the catalog.
type ScenarioSpec struct {
	// Name is the catalog key (lowercase, stable — golden files and CLI
	// flags refer to it).
	Name string
	// Description is the operator-facing one-liner.
	Description string
	// DefaultDevices is the device count used when a build does not
	// specify one.
	DefaultDevices int
	// MaxRounds bounds how many control rounds a closed-loop controller
	// may need before every device's poll rate has converged on this
	// regime.
	MaxRounds int
	// QualityBar is the maximum acceptable reconstruction error on this
	// regime, as a fraction of each metric's value swing (RMSE/Swing
	// against the clean signal at converged rates).
	QualityBar float64
	// BudgetFraction is the share of the production fleet rate a
	// closed-loop run is budgeted on this regime (1 = the rate the fleet
	// already pays). Regimes that need aliasing probes get more headroom.
	//
	// Hostile regimes reinterpret this as the estimator-capacity budget:
	// the MaxSeries cap granted to the ingest harness, as a fraction of
	// the regime's distinct wire-id load (see fleet.RunHostile).
	BudgetFraction float64
	// Hostile marks wire-hostile regimes: the device population is
	// benign, but the wire transform (WireGen) churns ids, delivers
	// samples out of order, or skews clocks. Their bars are enforced by
	// the ingest-side hostile harness instead of the closed-loop
	// controller.
	Hostile bool
}

// Scenario is a built workload regime: the spec, the deterministic device
// population, and the per-device poll-phase offsets (zero except in the
// phase-jitter regime).
type Scenario struct {
	// Spec is the catalog entry the scenario was built from.
	Spec ScenarioSpec
	// Seed is the seed the population was built with.
	Seed int64
	// Fleet is the device population.
	Fleet *Fleet
	// PhaseOffset is each device's poll-phase offset in seconds of
	// signal time: device i's k-th poll at rate r reads the signal at
	// PhaseOffset[i] + k/r. All zeros except in the phasejitter regime.
	PhaseOffset []float64
	// Hostile carries the wire-transform knobs of hostile regimes (nil
	// for the benign catalog). The signals stay clean — the hostility is
	// in how samples reach the wire.
	Hostile *HostileSpec
}

// catalogEntry pairs a regime's spec with its builder.
type catalogEntry struct {
	spec  ScenarioSpec
	build func(s *Scenario, rng *rand.Rand) error
}

// scenarioCatalog holds the regimes in catalog order: the six benign
// regimes here, the hostile ones appended from hostile.go. Golden tests
// pin the builds, so changing a builder is a (deliberate) regression
// event.
var scenarioCatalog = []catalogEntry{
	{
		spec: ScenarioSpec{
			Name:           "diurnal",
			Description:    "daily rhythms with sub-diurnal drift, the baseline telemetry regime",
			DefaultDevices: 48,
			MaxRounds:      12,
			QualityBar:     0.35,
			BudgetFraction: 1,
		},
		build: buildDiurnal,
	},
	{
		spec: ScenarioSpec{
			Name:           "microburst",
			Description:    "quiet links with recurring high-frequency bursts (link flaps, batch jobs)",
			DefaultDevices: 48,
			MaxRounds:      14,
			QualityBar:     0.5,
			BudgetFraction: 2,
		},
		build: buildMicroburst,
	},
	{
		spec: ScenarioSpec{
			Name:           "flatline",
			Description:    "idle and failed sensors: variation below the sensor quantum, constant exports",
			DefaultDevices: 48,
			MaxRounds:      6,
			QualityBar:     0.2,
			BudgetFraction: 0.5,
		},
		build: buildFlatline,
	},
	{
		spec: ScenarioSpec{
			Name:           "sweep",
			Description:    "band limits swept log-uniformly across three decades, one device per step",
			DefaultDevices: 48,
			MaxRounds:      10,
			QualityBar:     0.45,
			BudgetFraction: 2,
		},
		build: buildSweep,
	},
	{
		spec: ScenarioSpec{
			Name:           "racks",
			Description:    "rack-correlated devices: 16 per rack share a base signal plus small local wiggle",
			DefaultDevices: 48,
			MaxRounds:      8,
			QualityBar:     0.35,
			BudgetFraction: 1,
		},
		build: buildRacks,
	},
	{
		spec: ScenarioSpec{
			Name:           "phasejitter",
			Description:    "identical rhythms polled with unsynchronized phases (staggered collector starts)",
			DefaultDevices: 48,
			MaxRounds:      8,
			QualityBar:     0.35,
			BudgetFraction: 1,
		},
		build: buildPhaseJitter,
	},
}

// Scenarios returns the catalog specs in catalog order.
func Scenarios() []ScenarioSpec {
	out := make([]ScenarioSpec, len(scenarioCatalog))
	for i, c := range scenarioCatalog {
		out[i] = c.spec
	}
	return out
}

// ScenarioNames returns the catalog keys, sorted.
func ScenarioNames() []string {
	out := make([]string, len(scenarioCatalog))
	for i, c := range scenarioCatalog {
		out[i] = c.spec.Name
	}
	sort.Strings(out)
	return out
}

// ErrUnknownScenario reports a name outside the catalog.
var ErrUnknownScenario = errors.New("dcsim: unknown scenario")

// BuildScenario builds the named regime deterministically from the seed.
// devices <= 0 selects the spec's default. The same (name, seed, devices)
// triple always yields byte-identical populations.
func BuildScenario(name string, seed int64, devices int) (*Scenario, error) {
	for _, c := range scenarioCatalog {
		if c.spec.Name != name {
			continue
		}
		if devices <= 0 {
			devices = c.spec.DefaultDevices
		}
		s := &Scenario{
			Spec:        c.spec,
			Seed:        seed,
			Fleet:       &Fleet{Seed: seed},
			PhaseOffset: make([]float64, devices),
		}
		s.Fleet.Devices = make([]*Device, 0, devices)
		rng := rand.New(rand.NewSource(seed ^ int64(fnvName(name))))
		if err := c.build(s, rng); err != nil {
			return nil, fmt.Errorf("dcsim: scenario %s: %w", name, err)
		}
		if len(s.Fleet.Devices) != devices {
			return nil, fmt.Errorf("dcsim: scenario %s built %d devices, want %d", name, len(s.Fleet.Devices), devices)
		}
		return s, nil
	}
	return nil, fmt.Errorf("%w %q (catalog: %v)", ErrUnknownScenario, name, ScenarioNames())
}

// fnvName folds the scenario name into the seed so two regimes built from
// the same seed do not share device populations.
func fnvName(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// scenarioID names device i of a regime.
func (s *Scenario) scenarioID(m Metric, i int) string {
	return fmt.Sprintf("%s/%s/dev%04d", s.Spec.Name, sanitize(ProfileFor(m).Name), i)
}

// metricAt cycles the 14 families so every regime mixes metric characters.
func metricAt(i int) Metric { return Metric(i % NumMetrics) }

// pollIntervalFor draws a production poll interval from the metric's
// ad-hoc set.
func pollIntervalFor(m Metric, rng *rand.Rand) (p Profile, iv float64) {
	p = ProfileFor(m)
	d := p.PollIntervals[rng.Intn(len(p.PollIntervals))]
	return p, d.Seconds()
}

// rawDevice assembles a Device from explicit parts: NewDevice and
// NewContinuousDevice end here, and so do the scenario builders whose
// regime neither public shape fits.
func rawDevice(id string, m Metric, p Profile, base *BandLimited, pollInterval time.Duration, noise float64, seed uint64) *Device {
	d := &Device{
		ID:           id,
		Metric:       m,
		TrueNyquist:  2 * base.BandLimit(),
		PollInterval: pollInterval,
		profile:      p,
		sig:          &Composite{Base: base},
		noise:        noise,
		seed:         seed,
	}
	if p.QuantStep > 0 {
		d.quant = &dsp.Quantizer{Step: p.QuantStep}
	}
	return d
}

// addDevice appends device i of a regime's fleet around base, seeded per
// device.
func (s *Scenario) addDevice(i int, m Metric, p Profile, base *BandLimited, iv, noise float64) {
	seed := uint64(s.Seed) + uint64(i)*7919
	s.Fleet.Devices = append(s.Fleet.Devices, rawDevice(s.scenarioID(m, i), m, p, base, secondsToDuration(iv), noise, seed))
}

// secondsToDuration converts seconds of signal time to a time.Duration.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// buildDiurnal: harmonic devices carrying the diurnal fundamental and its
// harmonics, plus a sub-diurnal drift component (a third of a cycle per
// day) modelling the slow load migration real fleets ride on.
func buildDiurnal(s *Scenario, rng *rand.Rand) error {
	n := len(s.PhaseOffset)
	for i := 0; i < n; i++ {
		m := metricAt(i)
		p, iv := pollIntervalFor(m, rng)
		// Band limits one to two decades above the diurnal fundamental.
		bl := DiurnalFreq * math.Pow(10, 0.5+1.5*rng.Float64())
		seed := uint64(s.Seed) + uint64(i)*7919
		dev, err := NewDevice(s.scenarioID(m, i), m, bl, secondsToDuration(iv), rng, seed)
		if err != nil {
			return err
		}
		// Drift: a day-scale enveloped swell well below the fundamental,
		// long enough to span any audit window.
		dev.AddBurst(Burst{
			Start:    0,
			Duration: 64 * 86400,
			Freq:     DiurnalFreq / 3,
			Amp:      0.3 * p.Swing,
		})
		s.Fleet.Devices = append(s.Fleet.Devices, dev)
	}
	return nil
}

// buildMicroburst: slow harmonic base signals with a recurring train of
// short high-frequency bursts — the §4.2 regime where a controller that
// converged low must notice aliased windows and probe back up.
//
// The bursts sit far above Device.TrueNyquist, which (per the AddBurst
// contract throughout dcsim) tracks the *base* band only: transient
// events are deliberately not part of the steady-state ground truth —
// they are exactly what §4.2's probing exists to catch, and the regime's
// elevated QualityBar prices the reconstruction error of converging low
// between bursts.
func buildMicroburst(s *Scenario, rng *rand.Rand) error {
	n := len(s.PhaseOffset)
	for i := 0; i < n; i++ {
		m := metricAt(i)
		p, iv := pollIntervalFor(m, rng)
		bl := DiurnalFreq * math.Pow(10, 0.3+0.7*rng.Float64())
		seed := uint64(s.Seed) + uint64(i)*7919
		dev, err := NewDevice(s.scenarioID(m, i), m, bl, secondsToDuration(iv), rng, seed)
		if err != nil {
			return err
		}
		// Bursts every one to three hours, 2-5 poll intervals long, at a
		// frequency far above the base band.
		period := 3600 * (1 + 2*rng.Float64())
		burstLen := iv * (2 + 3*rng.Float64())
		first := period * rng.Float64()
		freq := 40 * bl * (1 + rng.Float64())
		for _, b := range FlapTrain(first, period, burstLen, 64*86400, freq, 2*p.Swing) {
			dev.AddBurst(b)
		}
		s.Fleet.Devices = append(s.Fleet.Devices, dev)
	}
	return nil
}

// buildFlatline: idle counters and failed probes. Variation sits below
// the sensor quantum, so every poll reads the same number — the regime
// where a closed loop should collapse rates to the floor and retention to
// the coarsest tier.
func buildFlatline(s *Scenario, rng *rand.Rand) error {
	n := len(s.PhaseOffset)
	for i := 0; i < n; i++ {
		m := metricAt(i)
		p, iv := pollIntervalFor(m, rng)
		// Real variation exists far below one cycle per day, but the
		// exported readings are exactly constant: the base level is
		// snapped onto the sensor grid and the swing held to a tenth of
		// a quantum, so round-to-nearest always lands on the same level.
		bl := DiurnalFreq * math.Pow(10, -2+1.5*rng.Float64())
		amp := 0.0
		if p.QuantStep > 0 {
			p.Base = math.Round(p.Base/p.QuantStep) * p.QuantStep
			amp = 0.1 * p.QuantStep
		}
		base, err := NewBandLimited(rng, bl, amp, 8)
		if err != nil {
			return err
		}
		s.addDevice(i, m, p, base, iv, 0)
	}
	return nil
}

// buildSweep: one device per log-step of band limit across three decades
// (2e-6..2e-3 Hz) — the regime that exercises the controller's full
// dynamic range at once, like a chirp spread over the fleet.
func buildSweep(s *Scenario, rng *rand.Rand) error {
	n := len(s.PhaseOffset)
	const lo, hi = 2e-6, 2e-3
	for i := 0; i < n; i++ {
		m := metricAt(i)
		p, iv := pollIntervalFor(m, rng)
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		bl := lo * math.Pow(hi/lo, frac)
		base, err := NewBandLimited(rng, bl, p.Swing, 10)
		if err != nil {
			return err
		}
		s.addDevice(i, m, p, base, iv, p.NoiseAmp)
	}
	return nil
}

// buildRacks: devices grouped into racks of 16 sharing one base signal
// (the rack's aggregate load), each adding a small independent wiggle and
// its own measurement noise — the correlation structure black-hole
// detectors see on backbone traffic mixes.
func buildRacks(s *Scenario, rng *rand.Rand) error {
	n := len(s.PhaseOffset)
	const rackSize = 16
	var rackBase *BandLimited
	var rackLimit float64
	for i := 0; i < n; i++ {
		m := metricAt(i)
		p, iv := pollIntervalFor(m, rng)
		if i%rackSize == 0 {
			// New rack: a fresh shared base one decade above diurnal.
			rackLimit = DiurnalFreq * math.Pow(10, 0.5+rng.Float64())
			var err error
			rackBase, err = NewBandLimited(rng, rackLimit, 1, 10)
			if err != nil {
				return err
			}
		}
		// Local wiggle at 10 % amplitude within the same band, so the
		// rack's devices stay spectrally aligned but not identical.
		wiggle, err := NewBandLimited(rng, rackLimit, 0.1, 4)
		if err != nil {
			return err
		}
		base := mergeBandLimited(rackBase, wiggle, p.Swing)
		s.addDevice(i, m, p, base, iv, p.NoiseAmp)
	}
	return nil
}

// buildPhaseJitter: devices with near-identical diurnal-harmonic signals
// whose polls start at unsynchronized phases — the collector-restart
// regime where aggregate fleet load is smeared across the poll period.
// The offsets land in Scenario.PhaseOffset; a controller must apply them
// when polling.
func buildPhaseJitter(s *Scenario, rng *rand.Rand) error {
	n := len(s.PhaseOffset)
	for i := 0; i < n; i++ {
		m := metricAt(i)
		_, iv := pollIntervalFor(m, rng)
		bl := DiurnalFreq * math.Pow(10, 0.8+0.4*rng.Float64())
		seed := uint64(s.Seed) + uint64(i)*7919
		dev, err := NewDevice(s.scenarioID(m, i), m, bl, secondsToDuration(iv), rng, seed)
		if err != nil {
			return err
		}
		s.PhaseOffset[i] = iv * rng.Float64()
		s.Fleet.Devices = append(s.Fleet.Devices, dev)
	}
	return nil
}

// mergeBandLimited sums two component sets into one signal normalized to
// the requested amplitude scale, preserving the wider band limit.
func mergeBandLimited(a, b *BandLimited, amp float64) *BandLimited {
	comps := make([]component, 0, len(a.comps)+len(b.comps))
	comps = append(append(comps, a.comps...), b.comps...)
	total := 0.0
	for _, c := range comps {
		total += math.Abs(c.amp)
	}
	if total > 0 {
		for i := range comps {
			comps[i].amp *= amp / total
		}
	}
	return &BandLimited{comps: comps, limit: math.Max(a.limit, b.limit)}
}
