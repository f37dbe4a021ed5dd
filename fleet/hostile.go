package fleet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dcsim"
	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// The hostile harness: the ingest-side counterpart of the closed-loop
// Controller. Benign regimes are judged on the estimate→poll→retain
// loop; hostile regimes attack the serving path instead — id churn
// against the MaxSeries cap, out-of-order floods against strict append,
// skewed clocks against the interval lock — so their bars are enforced
// on exactly the pipeline nyquistd runs: strict-append store first,
// ingest estimator only for accepted points, rejection counted, never
// absorbed. The harness is single-threaded and deterministic, so golden
// reports pin every counter; the -race soak drives the same runner with
// concurrent store readers.

// HostileConfig parameterizes a hostile run. The zero value reproduces
// the golden-report configuration for the scenario's spec.
type HostileConfig struct {
	// Rounds is the number of wire rounds to run (0 = the spec's
	// MaxRounds).
	Rounds int
}

// The hostile pipeline's fixed settings.
const (
	// hostileWindow is the ingest estimator's analysis window: short, so
	// churn epochs and post-step recovery fit in a few rounds.
	hostileWindow = 64
	// hostileEmitEvery is the estimate refresh cadence.
	hostileEmitEvery = 8
	// hostileQuorum is the fraction of a round's active estimable ids
	// that must be warm with a clean estimate for the round to count as
	// converged.
	hostileQuorum = 0.9
)

// HostileRound is one wire round's accounting.
type HostileRound struct {
	// Round is 1-indexed.
	Round int
	// Emitted counts samples put on the wire this round; Late counts the
	// backfilled ones among them.
	Emitted, Late int
	// Accepted and StoreRejected partition Emitted by the strict-append
	// store's verdict.
	Accepted, StoreRejected int
	// EstimatorDropped counts accepted points the estimator declined
	// (new id at a full cap with nothing evictable).
	EstimatorDropped int
	// Evicted is the cumulative estimator eviction count after the round.
	Evicted int64
	// Live is the estimator's series count after the round.
	Live int
	// ActiveEstimable counts ids that traded this round and have seen a
	// full window; WarmClean counts those with a warm, clean estimate.
	ActiveEstimable, WarmClean int
	// QuorumMet reports whether WarmClean reached the quorum.
	QuorumMet bool
}

// HostileReport is a hostile run's full accounting, golden-pinned per
// regime.
type HostileReport struct {
	Spec    ScenarioSpec
	Seed    int64
	Devices int
	Rounds  []HostileRound

	// SamplesPerRound is the per-device round size the run used.
	SamplesPerRound int
	// DistinctIDs is the distinct wire ids the run carried; MaxSeries is
	// the estimator capacity budgeted from it; EvictAfter the LRU idle
	// threshold.
	DistinctIDs, MaxSeries, EvictAfter int

	// ConvergedRound is the first round meeting the warm-clean quorum
	// (0 = never); FinalQuorumMet whether the last round did.
	ConvergedRound int
	FinalQuorumMet bool

	// Wire totals.
	Emitted, Late, Accepted, StoreRejected, EstimatorDropped int
	// Estimator totals.
	Evicted, EstimatorRejected int64
	LiveSeries                 int
	// ReprobedIDs counts live ids whose interval re-locked at least once.
	ReprobedIDs int
	// StoreSeries and StorePoints are the strict store's final holdings.
	StoreSeries, StorePoints int

	// Quality: relative Nyquist-estimate error against device ground
	// truth over the live estimable ids.
	QualityIDs              int
	MedianRelErr, MaxRelErr float64
}

// HostileRunner drives one hostile run. Create with NewHostileRunner,
// read the store concurrently if desired (that is the -race soak), then
// call Run once.
type HostileRunner struct {
	sc    *Scenario
	gen   *dcsim.WireGen
	store *Store
	est   *monitor.IngestEstimator

	rounds                int
	maxSeries, evictAfter int

	accepted map[string]int
	truth    map[string]float64
}

// NewHostileRunner builds the serving pipeline for one scenario. Any
// catalog scenario is accepted; for benign regimes the wire transforms
// are the identity and the run is a plain ingest replay.
func NewHostileRunner(sc *Scenario, cfg HostileConfig) (*HostileRunner, error) {
	if sc == nil || sc.Fleet == nil || len(sc.Fleet.Devices) == 0 {
		return nil, fmt.Errorf("fleet: hostile runner needs a built scenario")
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = sc.Spec.MaxRounds
	}
	gen := dcsim.NewWireGen(sc, dcsim.WireConfig{})
	// The estimator's capacity is the regime budget: ceil(BudgetFraction x
	// distinct wire ids).
	frac := sc.Spec.BudgetFraction
	if frac <= 0 {
		frac = 1
	}
	maxSeries := max(1, int(math.Ceil(frac*float64(gen.DistinctIDs(rounds)))))
	// The LRU idle threshold is one and a half rounds of wire traffic: a
	// live series is observed every round so nothing active ever ages out,
	// while a dead churn epoch is reclaimable from the round after next.
	evictAfter := 3 * len(sc.Fleet.Devices) * dcsim.DefaultSamplesPerRound / 2
	store := tsdb.New(tsdb.Config{
		Shards: 8,
		Retention: tsdb.RetentionConfig{
			RawCapacity:   1024,
			TierCapacity:  256,
			Tiers:         2,
			CompressBlock: 64,
		},
	})
	est := monitor.NewIngestEstimator(store, monitor.IngestConfig{
		WindowSamples: hostileWindow,
		EmitEvery:     hostileEmitEvery,
		// The paper's 90 % cut-off: a 64-sample window has 32 bins and the
		// hook's Hann main lobe spans four of them, so the default 99 %
		// sits a lobe's skirt past the band edge — bin resolution, not
		// leakage, is what this window length pays.
		EnergyCutoff: 0.9,
		MaxSeries:    maxSeries,
		EvictAfter:   evictAfter,
	})
	return &HostileRunner{
		sc:         sc,
		gen:        gen,
		store:      store,
		est:        est,
		rounds:     rounds,
		maxSeries:  maxSeries,
		evictAfter: evictAfter,
		accepted:   make(map[string]int),
		truth:      make(map[string]float64),
	}, nil
}

// Store returns the runner's live store — safe to query concurrently
// with Run.
func (r *HostileRunner) Store() *Store { return r.store }

// Estimator returns the runner's ingest estimator.
func (r *HostileRunner) Estimator() *monitor.IngestEstimator { return r.est }

// Run executes the configured rounds and returns the report.
func (r *HostileRunner) Run() (*HostileReport, error) {
	rep := &HostileReport{
		Spec:            r.sc.Spec,
		Seed:            r.sc.Seed,
		Devices:         len(r.sc.Fleet.Devices),
		SamplesPerRound: dcsim.DefaultSamplesPerRound,
		DistinctIDs:     r.gen.DistinctIDs(r.rounds),
		MaxSeries:       r.maxSeries,
		EvictAfter:      r.evictAfter,
	}
	for round := 1; round <= r.rounds; round++ {
		rs := HostileRound{Round: round}
		var active []string
		seen := make(map[string]bool)
		for _, ws := range r.gen.Round() {
			rs.Emitted++
			if ws.Late {
				rs.Late++
			}
			if !seen[ws.ID] {
				seen[ws.ID] = true
				active = append(active, ws.ID)
			}
			p := series.Point{Time: ws.Time, Value: ws.Value}
			if err := r.store.Append(ws.ID, p); err != nil {
				// Mirror the serving path: a rejected append never
				// feeds the estimator — truthful accounting means the
				// estimate only ever reflects what the store holds.
				rs.StoreRejected++
				continue
			}
			rs.Accepted++
			r.accepted[ws.ID]++
			r.truth[ws.ID] = r.sc.Fleet.Devices[ws.Device].TrueNyquist
			if !r.est.Observe(ws.ID, p) {
				rs.EstimatorDropped++
			}
		}
		for _, id := range active {
			if r.accepted[id] < hostileWindow {
				continue
			}
			rs.ActiveEstimable++
			if adv, ok := r.est.Advice(id); ok && adv.Warm && adv.NyquistRate > 0 {
				rs.WarmClean++
			}
		}
		rs.QuorumMet = rs.ActiveEstimable > 0 &&
			float64(rs.WarmClean) >= hostileQuorum*float64(rs.ActiveEstimable)
		rs.Evicted = r.est.Evicted()
		rs.Live = r.est.Len()
		rep.Rounds = append(rep.Rounds, rs)

		rep.Emitted += rs.Emitted
		rep.Late += rs.Late
		rep.Accepted += rs.Accepted
		rep.StoreRejected += rs.StoreRejected
		rep.EstimatorDropped += rs.EstimatorDropped
		if rs.QuorumMet && rep.ConvergedRound == 0 {
			rep.ConvergedRound = round
		}
		if round == r.rounds {
			rep.FinalQuorumMet = rs.QuorumMet
		}
	}

	rep.Evicted = r.est.Evicted()
	rep.EstimatorRejected = r.est.Rejected()
	rep.LiveSeries = r.est.Len()
	st := r.store.Stats()
	rep.StoreSeries = st.Series
	rep.StorePoints = int(st.Appends)

	// Final quality sweep over the live estimable ids, in sorted id
	// order for determinism.
	ids := make([]string, 0, len(r.accepted))
	for id := range r.accepted {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var errs []float64
	for _, id := range ids {
		adv, ok := r.est.Advice(id)
		if !ok {
			continue
		}
		if adv.Reprobes > 0 {
			rep.ReprobedIDs++
		}
		if r.accepted[id] < hostileWindow || adv.NyquistRate <= 0 {
			continue
		}
		truth := r.truth[id]
		if truth <= 0 {
			continue
		}
		errs = append(errs, math.Abs(adv.NyquistRate-truth)/truth)
	}
	rep.QualityIDs = len(errs)
	if len(errs) > 0 {
		sort.Float64s(errs)
		rep.MedianRelErr = errs[len(errs)/2]
		rep.MaxRelErr = errs[len(errs)-1]
	}
	return rep, nil
}

// RunHostile builds the pipeline and runs the scenario in one call — the
// golden-report entry point.
func RunHostile(sc *Scenario, cfg HostileConfig) (*HostileReport, error) {
	r, err := NewHostileRunner(sc, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// Render produces the byte-stable text report pinned by the golden
// files: every counter of every round, the convergence verdict, and the
// quality tail.
func (r *HostileReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== hostile regime %s (seed %d, %d devices) ===\n", r.Spec.Name, r.Seed, r.Devices)
	fmt.Fprintf(&b, "%s\n", r.Spec.Description)
	fmt.Fprintf(&b, "wire: %d rounds x %d samples/device; distinct ids %d\n",
		len(r.Rounds), r.SamplesPerRound, r.DistinctIDs)
	fmt.Fprintf(&b, "estimator: cap %d series (budget %.0f%% of ids), evict after %d idle obs\n",
		r.MaxSeries, 100*r.Spec.BudgetFraction, r.EvictAfter)
	fmt.Fprintf(&b, "%5s %8s %6s %9s %9s %8s %8s %6s %12s\n",
		"round", "emitted", "late", "accepted", "rejected", "est-drop", "evicted", "live", "warm-clean")
	for _, rs := range r.Rounds {
		mark := " "
		if rs.QuorumMet {
			mark = "*"
		}
		fmt.Fprintf(&b, "%5d %8d %6d %9d %9d %8d %8d %6d %7d/%-4d%s\n",
			rs.Round, rs.Emitted, rs.Late, rs.Accepted, rs.StoreRejected,
			rs.EstimatorDropped, rs.Evicted, rs.Live, rs.WarmClean, rs.ActiveEstimable, mark)
	}
	if r.ConvergedRound > 0 {
		fmt.Fprintf(&b, "converged: round %d of %d (quorum of active estimable ids warm+clean)\n",
			r.ConvergedRound, r.Spec.MaxRounds)
	} else {
		fmt.Fprintf(&b, "converged: never within %d rounds\n", r.Spec.MaxRounds)
	}
	fmt.Fprintf(&b, "final round quorum met: %v\n", r.FinalQuorumMet)
	fmt.Fprintf(&b, "wire totals: emitted %d (late %d), accepted %d, store-rejected %d, estimator-dropped %d\n",
		r.Emitted, r.Late, r.Accepted, r.StoreRejected, r.EstimatorDropped)
	fmt.Fprintf(&b, "estimator totals: live %d, evicted %d, cap-rejected %d, reprobed ids %d\n",
		r.LiveSeries, r.Evicted, r.EstimatorRejected, r.ReprobedIDs)
	fmt.Fprintf(&b, "store: %d series, %d points accepted\n", r.StoreSeries, r.StorePoints)
	fmt.Fprintf(&b, "quality: median rel err %.1f%% over %d estimable ids (max %.1f%%), bar %.0f%%\n",
		100*r.MedianRelErr, r.QualityIDs, 100*r.MaxRelErr, 100*r.Spec.QualityBar)
	return b.String()
}
