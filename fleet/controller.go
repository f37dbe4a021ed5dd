package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// Controller closes the paper's loop over a whole fleet: poll every
// device at its current rate, stream the polls through a per-device
// estimator, turn the estimates into next-round poll rates under a
// fleet-wide sample budget (monitor.Allocate), and retune each series'
// storage retention (tsdb SetNyquistRate) — estimate → poll rate → retention,
// round after round, until rates stop moving.
//
// One Controller instance drives one scenario run. Rounds are driven by
// Step (one control round) or Run (rounds until convergence or the
// scenario's bound); Report aggregates the run deterministically, so two
// runs with the same configuration produce byte-identical reports however
// the worker pool interleaved.
type Controller struct {
	cfg      ControllerConfig
	scenario *Scenario
	store    *Store

	// Per-device control state, indexed like Fleet.Devices.
	rate      []float64 // current granted poll rate (hertz)
	cursor    []float64 // per-device signal-time cursor (seconds)
	cost      []monitor.Cost
	converged []bool
	policy    []core.RatePolicy // the §4.2 verdict-to-rate door, per device

	round   int
	rounds  []RoundSummary
	censusC monitor.Cost // bill of the initial Scanner census, if any
	scanRep *ScanReport
}

// ControllerConfig parameterizes a closed-loop run.
type ControllerConfig struct {
	// Workers bounds the per-round worker pool; zero selects GOMAXPROCS.
	Workers int
	// BudgetHz caps the fleet-wide steady-state sample rate; each
	// round's desired rates are passed through monitor.Allocate against
	// it. Zero disables budgeting (every desire is granted).
	BudgetHz float64
	// InitialScan seeds round-1 rates from a Scanner census at the
	// production rates instead of starting blind, wiring the PR-1
	// scanner into the loop. The census polls are billed.
	InitialScan bool
}

// The loop's fixed settings.
const (
	// samplesPerRound is how many polls each device takes per control
	// round (also the estimation window).
	samplesPerRound = 64
	// controlCutoff is the estimation threshold: 0.90, the robust choice
	// for the short windows a control round sees (the paper's 99 % keeps
	// chasing the measurement-noise floor there — the same trade the §4.2
	// adaptive loop makes).
	controlCutoff = 0.90
	// minRate and maxRate clamp per-device grants, in hertz: one poll per
	// hour (the floor operators keep for liveness) and one per second.
	minRate, maxRate = 1.0 / 3600, 1
	// convergeTol is the relative rate change below which a device counts
	// as converged for the round.
	convergeTol = 0.05
	// convergeQuorum is the fraction of devices that must hold within
	// tolerance for the fleet to count as converged (regimes with
	// recurring transients — microbursts — honestly never settle their
	// last few devices, which keep probing as §4.2 says they should).
	convergeQuorum = 0.9
	// scanWindow is the census audit window when InitialScan is set.
	scanWindow = 6 * time.Hour
	// qualityDevices is how many devices the final reconstruction-error
	// audit samples, deterministically strided across the fleet.
	qualityDevices = 32
)

// controlEpoch anchors stored sample timestamps: the pipeline's standard
// epoch.
var controlEpoch = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

// NewController validates cfg, builds the store, and prepares a
// run over the scenario: every device starts at its production poll rate
// (or, with InitialScan, at the census estimate).
func NewController(scenario *Scenario, cfg ControllerConfig) (*Controller, error) {
	if scenario == nil || scenario.Fleet == nil || len(scenario.Fleet.Devices) == 0 {
		return nil, errors.New("fleet: controller needs a built scenario")
	}
	if cfg.Workers < 0 {
		return nil, errors.New("fleet: negative worker count")
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	n := len(scenario.Fleet.Devices)
	ctl := &Controller{
		cfg:      cfg,
		scenario: scenario,
		store: tsdb.New(tsdb.Config{
			Retention: tsdb.RetentionConfig{RawCapacity: 4 * samplesPerRound, TierCapacity: 2 * samplesPerRound},
		}),
		rate:      make([]float64, n),
		cursor:    make([]float64, n),
		cost:      make([]monitor.Cost, n),
		converged: make([]bool, n),
		policy:    make([]core.RatePolicy, n),
	}
	for i, d := range scenario.Fleet.Devices {
		ctl.rate[i] = clamp(d.PollRate(), minRate, maxRate)
		ctl.cursor[i] = scenario.PhaseOffset[i]
	}
	if cfg.InitialScan {
		if err := ctl.census(); err != nil {
			return nil, err
		}
	}
	return ctl, nil
}

// census seeds the loop from a Scanner pass at production rates — the
// PR-1 fleet audit becoming the controller's first estimate.
func (ctl *Controller) census() error {
	sc, err := NewScanner(ScanConfig{
		Workers:       ctl.cfg.Workers,
		Window:        scanWindow,
		WindowSamples: samplesPerRound,
		EnergyCutoff:  controlCutoff,
	})
	if err != nil {
		return err
	}
	results := make([]DeviceResult, 0, ctl.scenario.Fleet.Len())
	for r := range sc.Scan(ctl.scenario.Fleet) {
		results = append(results, r)
	}
	sort.Slice(results, func(a, b int) bool { return results[a].Index < results[b].Index })
	for _, r := range results {
		ctl.censusC.Add(monitor.DefaultCostModel(), r.Samples)
		switch {
		case errors.Is(r.Err, core.ErrAliased):
			// Under-sampled at the production rate: start the loop above
			// it so the first rounds probe instead of trusting a folded
			// spectrum.
			ctl.rate[r.Index] = clamp(2*r.PollRate, minRate, maxRate)
		case r.Err == nil && r.Result.NyquistRate > 0:
			ctl.rate[r.Index] = clamp(series.Headroom*r.Result.NyquistRate, minRate, maxRate)
		}
	}
	ctl.scanRep = Aggregate(results, scanWindow)
	return nil
}

// CensusReport returns the initial Scanner census aggregate, or nil when
// the run started blind.
func (ctl *Controller) CensusReport() *ScanReport { return ctl.scanRep }

// RoundSummary is the fleet-level outcome of one control round.
type RoundSummary struct {
	// Round is the 1-based round index.
	Round int
	// Samples is the polls taken this round, fleet-wide.
	Samples int
	// FleetHz is the steady-state fleet sample rate granted for the
	// next round (the sum of per-device rates).
	FleetHz float64
	// DemandHz is the fleet's aggregate desired rate before budgeting.
	DemandHz float64
	// Quality is the budget plan's weighted captured-band score in
	// [0, 1] (1 = every device granted at least its desired rate).
	Quality float64
	// Aliased counts devices whose round window carried the aliased
	// signature (their grants probe upward).
	Aliased int
	// Converged counts devices whose granted rate moved by at most the
	// convergence tolerance.
	Converged int
}

// perDevice is one worker's outcome for one device in one round: the
// estimator's answer on its window, or the error that kept it from one.
type perDevice struct {
	samples int
	nyquist float64
	err     error
}

// Step runs one control round: poll, estimate, allocate, retune. It
// returns the round's summary. Deterministic: workers write into indexed
// slots and every aggregate is computed in device order.
func (ctl *Controller) Step() (RoundSummary, error) {
	devices := ctl.scenario.Fleet.Devices
	n := len(devices)
	results := make([]perDevice, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < ctl.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = ctl.pollOne(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	ctl.round++
	sum := RoundSummary{Round: ctl.round}
	demands := make([]monitor.Demand, n)
	for i := range results {
		r := &results[i]
		// core.RatePolicy decides (rounds are disjoint windows: turnover 1).
		d, err := ctl.policy[i].Feed(r.nyquist, r.err, 1)
		if err != nil {
			return sum, fmt.Errorf("fleet: round %d device %s: %w", ctl.round, devices[i].ID, err)
		}
		if d.Changed {
			ctl.store.SetNyquistRate(devices[i].ID, d.Held)
		}
		sum.Samples += r.samples
		ctl.cost[i].Add(monitor.DefaultCostModel(), r.samples)
		if d.Aliased {
			sum.Aliased++
		}
		desired := clamp(d.PollRate(ctl.rate[i], r.nyquist), minRate, maxRate)
		demands[i] = monitor.Demand{ID: devices[i].ID, NyquistRate: desired}
		sum.DemandHz += desired
	}

	// Fleet-wide allocation: grant every desire when unbudgeted, else
	// spread the budget by weighted proportional fairness.
	granted := make([]float64, n)
	if ctl.cfg.BudgetHz > 0 {
		plan, err := monitor.Allocate(demands, ctl.cfg.BudgetHz)
		if err != nil {
			return sum, err
		}
		for i, a := range plan.Allocations {
			granted[i] = a.Rate
		}
		sum.Quality = plan.QualityScore()
	} else {
		for i := range demands {
			granted[i] = demands[i].NyquistRate
		}
		sum.Quality = 1
	}
	for i := range granted {
		g := clamp(granted[i], minRate, maxRate)
		prev := ctl.rate[i]
		ctl.converged[i] = math.Abs(g-prev) <= convergeTol*prev
		if ctl.converged[i] {
			sum.Converged++
		}
		ctl.rate[i] = g
		sum.FleetHz += g
	}
	ctl.rounds = append(ctl.rounds, sum)
	return sum, nil
}

// pollOne polls device i for one round at its current rate, streams the
// polls through a fresh estimator window, and writes them to the store.
func (ctl *Controller) pollOne(i int) perDevice {
	d := ctl.scenario.Fleet.Devices[i]
	rate := ctl.rate[i]
	const n = samplesPerRound
	out := perDevice{samples: n}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		out.err = fmt.Errorf("fleet: rate %v too fast to represent", rate)
		return out
	}
	st, err := core.NewStreamEstimator(core.StreamConfig{
		Interval:      interval,
		WindowSamples: n,
		EnergyCutoff:  controlCutoff,
		// The estimate is read once at the end of the round.
		EmitEvery: 1 << 30,
	})
	if err != nil {
		out.err = err
		return out
	}
	ivs := interval.Seconds()
	base := ctl.cursor[i]
	block := make([]float64, n)
	for k := 0; k < n; k++ {
		v := d.At(base + float64(k)*ivs)
		st.Push(v)
		block[k] = v
	}
	if err := ctl.store.AppendUniform(d.ID, &series.Uniform{
		Start:    controlEpoch.Add(time.Duration(base * float64(time.Second))),
		Interval: interval,
		Values:   block,
	}); err != nil {
		out.err = err
		return out
	}
	ctl.cursor[i] = base + float64(n)*ivs

	res, err := st.Current()
	if res != nil {
		out.nyquist = res.NyquistRate
	}
	out.err = err
	return out
}

// quorum is the device count that must hold within tolerance for the
// fleet to count as converged.
func (ctl *Controller) quorum() int {
	n := len(ctl.rate)
	q := int(math.Ceil(convergeQuorum * float64(n)))
	if q < 1 {
		q = 1
	}
	if q > n {
		q = n
	}
	return q
}

// Converged reports whether at least the convergence quorum of devices
// held within tolerance on the most recent round.
func (ctl *Controller) Converged() bool {
	if ctl.round == 0 {
		return false
	}
	n := 0
	for _, c := range ctl.converged {
		if c {
			n++
		}
	}
	return n >= ctl.quorum()
}

// Run steps rounds until the fleet converges or maxRounds is reached
// (zero selects the scenario's MaxRounds bound). It returns the report.
func (ctl *Controller) Run(maxRounds int) (*ControllerReport, error) {
	if maxRounds <= 0 {
		maxRounds = ctl.scenario.Spec.MaxRounds
	}
	for r := 0; r < maxRounds; r++ {
		if _, err := ctl.Step(); err != nil {
			return nil, err
		}
		if ctl.Converged() {
			break
		}
	}
	return ctl.Report(), nil
}

// DeviceStatus is one device's view of the control state, for drill-down
// reporting.
type DeviceStatus struct {
	// ID names the metric/device pair.
	ID string
	// ProductionRate is the rate the device polled at before the loop.
	ProductionRate float64
	// Rate is the currently granted rate.
	Rate float64
	// TrueNyquist is the simulation's ground truth.
	TrueNyquist float64
	// Cost is the device's accumulated bill (census + rounds).
	Cost monitor.Cost
	// Aliased reports the last round's aliasing verdict.
	Aliased bool
	// Converged reports whether the last grant held within tolerance.
	Converged bool
}

// Devices returns per-device control state in fleet order.
func (ctl *Controller) Devices() []DeviceStatus {
	out := make([]DeviceStatus, len(ctl.rate))
	for i, d := range ctl.scenario.Fleet.Devices {
		out[i] = DeviceStatus{
			ID:             d.ID,
			ProductionRate: d.PollRate(),
			Rate:           ctl.rate[i],
			TrueNyquist:    d.TrueNyquist,
			Cost:           ctl.cost[i],
			Aliased:        ctl.policy[i].Standing().Aliased,
			Converged:      ctl.converged[i],
		}
	}
	return out
}

// ControllerReport aggregates a closed-loop run.
type ControllerReport struct {
	// Scenario and Seed identify the workload.
	Scenario string
	// Seed is the scenario build seed.
	Seed int64
	// Devices is the fleet size.
	Devices int
	// Rounds holds one summary per completed round.
	Rounds []RoundSummary
	// ConvergedRound is the first round on which at least the
	// convergence quorum of devices held within tolerance (0 = never
	// during the run).
	ConvergedRound int
	// ProductionHz is the fleet rate before the loop (sum of the ad-hoc
	// production rates).
	ProductionHz float64
	// FinalHz is the fleet rate after the last round.
	FinalHz float64
	// BudgetHz echoes the configured budget (0 = unbudgeted).
	BudgetHz float64
	// TotalCost is the fleet bill: census polls plus every round's.
	TotalCost monitor.Cost
	// RateRatioMedian is the median granted-rate / true-Nyquist ratio —
	// >1 means the fleet polls above ground truth. TrueNyquist tracks
	// each device's base band; transient burst content (the microburst
	// regime) is deliberately excluded, so there the ratio reads high
	// while reconstruction error prices the bursts honestly.
	RateRatioMedian float64
	// Quality is the reconstruction-error audit over the sampled
	// devices (swing-normalized RMSE against the clean signals at the
	// final rates). Zero sample count disables it.
	Quality QualityAudit
	// Store summarizes the storage leg after the run.
	Store tsdb.Stats
}

// QualityAudit is the end-of-run reconstruction check.
type QualityAudit struct {
	// Devices is how many devices were audited.
	Devices int
	// MeanErr and MaxErr are the mean and worst swing-normalized
	// reconstruction RMSE across the audited devices.
	MeanErr, MaxErr float64
}

// Report aggregates the run so far. Deterministic for a given
// configuration and round count.
func (ctl *Controller) Report() *ControllerReport {
	rep := &ControllerReport{
		Scenario: ctl.scenario.Spec.Name,
		Seed:     ctl.scenario.Seed,
		Devices:  len(ctl.rate),
		Rounds:   append([]RoundSummary(nil), ctl.rounds...),
		BudgetHz: ctl.cfg.BudgetHz,
	}
	q := ctl.quorum()
	for _, s := range rep.Rounds {
		if s.Converged >= q {
			rep.ConvergedRound = s.Round
			break
		}
	}
	ratios := make([]float64, 0, rep.Devices)
	for i, d := range ctl.scenario.Fleet.Devices {
		rep.ProductionHz += d.PollRate()
		rep.FinalHz += ctl.rate[i]
		if d.TrueNyquist > 0 {
			ratios = append(ratios, ctl.rate[i]/d.TrueNyquist)
		}
	}
	rep.RateRatioMedian = median(ratios)
	rep.TotalCost = ctl.censusC
	for i := range ctl.cost {
		rep.TotalCost.AddCost(ctl.cost[i])
	}
	rep.Quality = ctl.qualityAudit()
	rep.Store = ctl.store.Stats()
	return rep
}

// qualityAudit measures reconstruction error on a deterministic stride of
// devices: poll each at its final granted rate, linearly reconstruct onto
// a 4x-finer grid, and compare against the clean signal. Errors are
// normalized by the metric's swing so families with different value
// ranges aggregate meaningfully.
func (ctl *Controller) qualityAudit() QualityAudit {
	var q QualityAudit
	if ctl.round == 0 {
		return q
	}
	n := len(ctl.rate)
	// Ceil division keeps the audited count at or under the cap.
	stride := max(1, (n+qualityDevices-1)/qualityDevices)
	const polls = 96
	for i := 0; i < n; i += stride {
		d := ctl.scenario.Fleet.Devices[i]
		rate := ctl.rate[i]
		ivs := 1 / rate
		base := ctl.cursor[i]
		pts := make([]series.Point, polls)
		for k := 0; k < polls; k++ {
			ts := base + float64(k)*ivs
			pts[k] = series.Point{
				Time:  controlEpoch.Add(time.Duration(ts * float64(time.Second))),
				Value: d.At(ts),
			}
		}
		fine, err := series.New(pts).Regularize(time.Duration(ivs/4*float64(time.Second)), series.Linear)
		if err != nil {
			continue
		}
		swing := d.Profile().Swing
		if swing <= 0 {
			continue
		}
		var sumSq float64
		m := fine.Len()
		for k := 0; k < m; k++ {
			ts := base + float64(k)*ivs/4
			diff := fine.Values[k] - d.CleanAt(ts)
			sumSq += diff * diff
		}
		errNorm := math.Sqrt(sumSq/float64(m)) / swing
		q.Devices++
		q.MeanErr += errNorm
		if errNorm > q.MaxErr {
			q.MaxErr = errNorm
		}
	}
	if q.Devices > 0 {
		q.MeanErr /= float64(q.Devices)
	}
	return q
}

// Render formats the report as the closed-loop operator table. Output is
// byte-stable for a fixed configuration (golden tests pin it).
func (r *ControllerReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "closed-loop controller: scenario %q, %d devices, seed %d\n", r.Scenario, r.Devices, r.Seed)
	if r.BudgetHz > 0 {
		fmt.Fprintf(&sb, "budget: %.4g Hz fleet-wide\n", r.BudgetHz)
	} else {
		fmt.Fprintf(&sb, "budget: unlimited\n")
	}
	fmt.Fprintf(&sb, "%5s %8s %12s %12s %8s %8s %10s\n",
		"round", "samples", "fleet Hz", "demand Hz", "quality", "aliased", "converged")
	for _, s := range r.Rounds {
		fmt.Fprintf(&sb, "%5d %8d %12.5g %12.5g %8.3f %8d %6d/%d\n",
			s.Round, s.Samples, s.FleetHz, s.DemandHz, s.Quality, s.Aliased, s.Converged, r.Devices)
	}
	if r.ConvergedRound > 0 {
		fmt.Fprintf(&sb, "converged: round %d\n", r.ConvergedRound)
	} else {
		fmt.Fprintf(&sb, "converged: not within %d rounds\n", len(r.Rounds))
	}
	fmt.Fprintf(&sb, "fleet rate: %.5g Hz production -> %.5g Hz closed-loop", r.ProductionHz, r.FinalHz)
	if r.FinalHz > 0 {
		fmt.Fprintf(&sb, " (%.3gx)", r.ProductionHz/r.FinalHz)
	}
	fmt.Fprintf(&sb, "\nmedian granted/true-Nyquist ratio: %.3g\n", r.RateRatioMedian)
	fmt.Fprintf(&sb, "cost: %s\n", r.TotalCost)
	if r.Quality.Devices > 0 {
		fmt.Fprintf(&sb, "reconstruction: mean err %.2f%% of swing, worst %.2f%% (%d devices audited)\n",
			100*r.Quality.MeanErr, 100*r.Quality.MaxErr, r.Quality.Devices)
	}
	fmt.Fprintf(&sb, "store: %d appends, %d retained (%d raw + %d buckets), %d compacted, %d dropped\n",
		r.Store.Appends, r.Store.Retained(), r.Store.RawPoints, r.Store.Buckets, r.Store.Compacted, r.Store.Dropped)
	return sb.String()
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
