package monitor

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// IngestEstimator is the estimate-on-ingest hook for externally pushed
// telemetry: the serving counterpart of the Archiver's per-block estimate.
// Controller-managed devices get their Nyquist estimates from the poll
// loop itself; series that arrive over a network boundary (internal/api,
// cmd/nyquistd) have no poller to ride, so the hook rebuilds the same
// loop from the ingest stream alone:
//
//  1. The first few points of an unknown series probe its poll interval
//     (the median positive gap — external pollers jitter).
//  2. Once the interval locks, every point feeds a per-series
//     core.StreamEstimator, so a live §3.2 estimate and aliasing verdict
//     exist for every external series.
//  3. Every refresh's rate and error go to the series' core.RatePolicy
//     (Feed), which classifies them and is the one door to the store's
//     retention (tsdb.DB.SetNyquistRate) — the paper's estimate→retain
//     loop, closed across the wire. Aliased windows only count, and halve
//     the advice once persistent so clients can poll faster.
//
// A counter (a metric name, the id up to its first '{', ending in _total)
// is estimated on its increments, as dcsim.RateFromCounter reads one:
// each point after the first of a new or restored series, which only
// primes the rule, reaches the window as series.Increment over the point
// before. The store keeps the raw totals.
//
// A sustained shift in the observed inter-arrival gap (a client
// redeploy changing its poll rate) re-probes the interval and restarts
// that series' window.
//
// IngestEstimator is safe for concurrent use; distinct series proceed in
// parallel.
type IngestEstimator struct {
	cfg   IngestConfig
	store retentionTuner
	// turnover is how many refreshes replace every sample of a series'
	// window (WindowSamples / EmitEvery): how long a lower estimate must
	// persist before retention follows it down.
	turnover int

	// clock counts every observation estimator-wide; each series stamps
	// it into lastSeen so idleness is measured in observations, not wall
	// time (a quiet fleet should not age anything out).
	clock atomic.Int64

	// Lifecycle counters for the observability layer (documented at the
	// accessors of the same names), atomic so the per-series fast path
	// never takes the estimator lock to bump them.
	probes           atomic.Int64
	reprobesTotal    atomic.Int64
	retunes          atomic.Int64
	heldRefreshes    atomic.Int64
	aliasedRefreshes atomic.Int64
	// windows counts the live analysis windows by ring width (setStream,
	// push): slot 0 holds those not pushed yet, slots 1, 2 and 3 those of
	// 2, 4 and 8 bytes a sample (widthSlot).
	windows [4]atomic.Int64

	mu     sync.RWMutex
	series map[string]*ingestSeries
	// rejected counts observations dropped because MaxSeries was hit.
	rejected int64
	// evicted counts series aged out by LRU eviction to admit new ones.
	evicted int64
	// evictQueue caches eviction candidates (oldest first) from the last
	// full scan, so a churn storm pays one O(n log n) scan per batch of
	// evictions instead of per eviction.
	evictQueue []string
}

// IngestConfig parameterizes an IngestEstimator.
type IngestConfig struct {
	// WindowSamples is each series' sliding analysis window; zero
	// selects 256 (shorter than the batch default: serving clients want
	// first estimates after hundreds, not thousands, of points).
	WindowSamples int
	// EmitEvery is the number of points between estimate refreshes once
	// a window is full; zero selects 8.
	EmitEvery int
	// EnergyCutoff is the spectral energy fraction defining the Nyquist
	// cut-off, passed through to each series' stream estimator; zero
	// selects the core default.
	EnergyCutoff float64
	// MaxSeries bounds the number of per-series estimator windows. Each
	// estimated series holds its sample ring, 2 bytes per window sample
	// for short decimal readings (a counter's increments among them), 4
	// for wide decimals until they drift 2^31 units from their first
	// reading, and 8 for others
	// (about 0.8, 1.3 or 2.3 KiB with its header at the
	// default 256), so a hostile cardinality
	// explosion — an id per request — would grow the estimator without
	// bound. Observations for new series beyond the cap
	// are dropped (and counted; see Rejected): existing series keep
	// estimating, the overflow series simply get no estimates or
	// retention retuning. Zero means unbounded.
	MaxSeries int
	// EvictAfter enables LRU eviction under the MaxSeries cap: when a
	// new series arrives at the cap, the longest-idle series — one not
	// observed for at least EvictAfter observations, estimator-wide — is
	// evicted to admit it, so churned ids (pod renames, short-lived
	// jobs) age out instead of pinning the cap forever. The evicted
	// series' stored points and retention tuning survive; only its
	// estimator window is released. Zero disables eviction (new series
	// at the cap are rejected); negative selects 4 x MaxSeries.
	EvictAfter int
}

// probeGaps is the number of inter-arrival gaps observed before the poll
// interval locks, and of drifted gaps in a row before it re-probes.
const probeGaps = 8

func (c IngestConfig) withDefaults() IngestConfig {
	if c.WindowSamples <= 0 {
		c.WindowSamples = 256
	}
	if c.EmitEvery <= 0 {
		c.EmitEvery = 8
	}
	if c.EvictAfter < 0 {
		c.EvictAfter = 4 * c.MaxSeries
	}
	return c
}

// IngestAdvice is the live operator guidance for one ingested series.
type IngestAdvice struct {
	// Series is the series id.
	Series string
	// Samples counts every point observed for the series.
	Samples int64
	// Interval is the locked poll interval (0 while still probing).
	Interval time.Duration
	// Warm reports whether a full analysis window has been seen; the
	// estimate fields below are meaningful only when it is.
	Warm bool
	// NyquistRate is the latest clean estimate in hertz (0 = none yet).
	NyquistRate float64
	// SuggestedInterval is the sweet-spot poll interval: half the locked
	// one while aliasing persists, else 1/(1.2 × NyquistRate) but never
	// shorter than the locked one once that estimate is trusted on this
	// grid since the last raise (core.RatePolicy.Standing), else the locked one.
	SuggestedInterval time.Duration
	// Aliased reports that the newest window carried the aliased
	// signature; AliasStreak counts consecutive aliased refreshes (≥ 2
	// means the client genuinely polls too slowly, not a one-window
	// blip).
	Aliased     bool
	AliasStreak int
	// EnergyCaptured is the spectral energy fraction below the cut-off
	// in the newest window.
	EnergyCaptured float64
	// UpdatedAt is the newest sample's timestamp at the last estimate
	// refresh (zero before the first refresh).
	UpdatedAt time.Time
	// Reprobes counts interval re-locks caused by sustained gap drift.
	Reprobes int
	// HeldRefreshes counts the consecutive clean refreshes that estimated
	// below the rate retention is held at; at HoldTurnover of them the
	// held rate drops to the highest among them.
	HeldRefreshes int
	HoldTurnover  int
}

// ingestSeries is one series' hook state. Its own mutex serializes
// observations per series while distinct series proceed in parallel.
type ingestSeries struct {
	// lastSeen is the estimator-wide clock value of the newest
	// observation for this series — the LRU recency stamp. Atomic so the
	// Observe fast path can stamp it without the estimator lock.
	lastSeen atomic.Int64

	mu sync.Mutex

	est      *core.StreamEstimator
	interval time.Duration
	pending  []series.Point // pre-lock probe window
	// lastTime (Unix nanoseconds) and, for a counter, prev are the newest
	// point observed since creation or RestoreState, if haveLast.
	lastTime int64
	prev     float64
	haveLast bool
	counter  bool // a _total series, fed its increments
	// evicted is set when eviction detaches the series; see setStream.
	evicted  bool
	samples  int64
	reprobes int

	// drift counts consecutive gaps outside the accepted band around
	// the locked interval.
	drift int

	// last is est's newest emission — the update est owns and rewrites in
	// place at every refresh — or nil before the first one.
	last        *core.StreamUpdate
	lastNyquist float64 // newest clean estimate the policy trusted
	// policy holds what SetNyquistRate last saw: lastNyquist, peak-held.
	policy core.RatePolicy
}

// NewIngestEstimator returns a hook feeding estimates into store (which
// may be nil when only advice, not retention retuning, is wanted).
func NewIngestEstimator(store *tsdb.DB, cfg IngestConfig) *IngestEstimator {
	e := &IngestEstimator{
		cfg:    cfg.withDefaults(),
		series: make(map[string]*ingestSeries),
	}
	e.turnover = e.cfg.WindowSamples / e.cfg.EmitEvery
	if store != nil {
		e.store = store
	}
	return e
}

// retentionTuner is where clean estimates are handed over: the *tsdb.DB in
// production, a recorder in tests.
type retentionTuner interface {
	SetNyquistRate(id string, rate float64)
}

// Store exists only because bench/trace.go names its store's type through
// this package; the [benchmark] PR that re-points the trace at *tsdb.DB
// deletes it.
type Store = tsdb.DB

// Observe ingests one point for id: pre-lock points accumulate toward
// the interval probe, post-lock points feed the series' streaming
// estimator, and every estimate refresh feeds the series' rate policy.
// The only way it declines is the MaxSeries cap: an observation for a new
// series beyond the cap is dropped and counted, and Observe returns false.
func (e *IngestEstimator) Observe(id string, p series.Point) bool {
	return e.ObserveRun(id, []series.Point{p}) == 1
}

// ObserveRun ingests a same-series run of points in arrival order:
// semantically len(pts) one-point runs, but the series is
// resolved once and its lock is held for the whole run, so the batched
// ingest path pays one map lookup and one lock round-trip per series per
// batch instead of per point. Returns the number of points observed; the
// remainder was dropped at the MaxSeries cap. Drops are always a prefix
// of the run — each dropped point retries admission (eviction can free a
// slot mid-run, exactly as per-point Observe calls would), and once the
// series exists nothing declines.
func (e *IngestEstimator) ObserveRun(id string, pts []series.Point) int {
	r := e.Admit(id, 0, len(pts))
	if r.s != nil {
		r.s.mu.Lock()
		for _, p := range pts[r.Lo:] {
			e.observeLocked(r.s, id, p)
		}
		r.s.mu.Unlock()
	}
	return len(pts) - r.Lo
}

// Run is a run Admit admitted: a batch admits its runs one after another,
// then may observe them on any goroutines, series by series.
type Run struct {
	Lo, Hi int // the positions admission kept
	id     string
	e      *IngestEstimator
	s      *ingestSeries
}

// Admit is ObserveRun's serial half for the run at positions [lo, hi):
// its admission, retried per point, and its LRU clock ticks. What the
// MaxSeries cap dropped is cut from the front of the run (all of it when
// the series was not admitted).
func (e *IngestEstimator) Admit(id string, lo, hi int) Run {
	var s *ingestSeries
	var tick int64
	for ; lo < hi; lo++ {
		tick = e.clock.Add(1)
		if s = e.lookupOrCreate(id, tick); s != nil {
			break
		}
	}
	if s != nil {
		s.lastSeen.Store(tick)
		if hi-lo > 1 {
			// Advance the estimator-wide clock for the rest of the run in
			// one add: intermediate tick values are observable only as LRU
			// recency, and only the newest stamp matters.
			s.lastSeen.Store(e.clock.Add(int64(hi - lo - 1)))
		}
	}
	return Run{Lo: lo, Hi: hi, id: id, e: e, s: s}
}

// Observe is ObserveRun's other half: the run's points are
// pts[order[i]].P for i in [r.Lo, r.Hi), so a batch copies none out.
func (r Run) Observe(pts []tsdb.BatchPoint, order []int32) {
	if r.s == nil {
		return
	}
	r.s.mu.Lock()
	for _, i := range order[r.Lo:r.Hi] {
		r.e.observeLocked(r.s, r.id, pts[i].P)
	}
	r.s.mu.Unlock()
}

// lookupOrCreate resolves id's hook state, creating it on first sight.
// A nil return means the MaxSeries cap held and nothing idle could be
// evicted: the observation is dropped and counted.
func (e *IngestEstimator) lookupOrCreate(id string, tick int64) *ingestSeries {
	e.mu.RLock()
	s := e.series[id]
	e.mu.RUnlock()
	if s != nil {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s = e.series[id]; s == nil {
		if e.cfg.MaxSeries > 0 && len(e.series) >= e.cfg.MaxSeries && !e.evictOneLocked(tick) {
			e.rejected++
			return nil
		}
		s = &ingestSeries{counter: isCounter(id)}
		e.series[id] = s
	}
	return s
}

// driftFactor bounds how far the observed gap may drift from the locked
// interval before it counts toward a re-probe: half or double, edges
// included, so a client that follows the halved advice of persistent
// aliasing is re-probed onto its new grid.
const driftFactor = 2

// observeLocked is the per-point body shared by Observe and ObserveRun.
// Called with s.mu held.
func (e *IngestEstimator) observeLocked(s *ingestSeries, id string, p series.Point) {
	s.samples++
	if s.counter {
		if !s.haveLast { // a counter's first reading only primes the rule
			s.prev, s.lastTime, s.haveLast = p.Value, p.Time.UnixNano(), true
			return
		}
		p.Value, s.prev = series.Increment(s.prev, p.Value), p.Value
	}
	if s.est == nil {
		s.probe(e, id, p)
		return
	}
	// Drift watch: a sustained change in the inter-arrival gap means
	// the client changed its poll rate; the locked grid (and with it
	// the frequency axis) is wrong, so re-probe.
	if s.haveLast {
		if gap := p.Time.Sub(time.Unix(0, s.lastTime)); gap > 0 {
			if gap <= s.interval/driftFactor || gap >= s.interval*driftFactor {
				s.drift++
			} else {
				s.drift = 0
			}
			if s.drift > probeGaps {
				s.reprobe(e, id, p)
				e.reprobesTotal.Add(1)
				return
			}
		}
	}
	s.lastTime, s.haveLast = p.Time.UnixNano(), true
	if up := e.push(s, p.Value); up != nil {
		s.refresh(up, p.Time)
		e.handOver(s, id, up.Result.NyquistRate, up.Err)
	}
}

// handOver feeds one refresh's estimate to the series' policy: an aliased
// verdict is only counted, a trusted estimate is the series' newest, and
// the store is retuned only when the held rate changes — an emission that
// leaves it where it was neither takes the store's shard lock nor counts
// as a retune. Called with s.mu held.
func (e *IngestEstimator) handOver(s *ingestSeries, id string, rate float64, err error) {
	// A stream reports no error but the aliased verdict, which Feed takes.
	d, _ := s.policy.Feed(rate, err, e.turnover)
	if d.Aliased {
		e.aliasedRefreshes.Add(1)
	}
	if !d.Trusted {
		return
	}
	s.lastNyquist = rate
	if !d.Changed {
		if rate < d.Held {
			e.heldRefreshes.Add(1)
		}
		return
	}
	e.retunes.Add(1)
	if e.store != nil {
		e.store.SetNyquistRate(id, d.Held)
	}
}

// evictBatch caps how many candidates one eviction scan caches: enough
// to amortize a churn storm, small enough to bound the sort.
const evictBatch = 4096

// evictOneLocked frees one estimator slot by evicting the longest-idle
// series, provided its idleness has reached EvictAfter observations.
// Returns false (no slot freed) when eviction is disabled or every
// series is recent enough to keep. Called with e.mu held for writing.
func (e *IngestEstimator) evictOneLocked(now int64) bool {
	if e.cfg.EvictAfter <= 0 {
		return false
	}
	if len(e.evictQueue) == 0 {
		type cand struct {
			id   string
			seen int64
		}
		cands := make([]cand, 0, 64)
		for id, s := range e.series {
			if seen := s.lastSeen.Load(); now-seen >= int64(e.cfg.EvictAfter) {
				cands = append(cands, cand{id, seen})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].seen != cands[b].seen {
				return cands[a].seen < cands[b].seen
			}
			return cands[a].id < cands[b].id
		})
		if len(cands) > evictBatch {
			cands = cands[:evictBatch]
		}
		for _, c := range cands {
			e.evictQueue = append(e.evictQueue, c.id)
		}
	}
	for len(e.evictQueue) > 0 {
		id := e.evictQueue[0]
		e.evictQueue = e.evictQueue[1:]
		s, ok := e.series[id]
		if !ok {
			continue
		}
		// Revalidate: the series may have woken up since the scan.
		if now-s.lastSeen.Load() < int64(e.cfg.EvictAfter) {
			continue
		}
		delete(e.series, id)
		e.evicted++
		s.mu.Lock()
		e.setStream(s, nil)
		s.evicted = true
		s.mu.Unlock()
		return true
	}
	return false
}

// refresh records up as the series' newest estimate, stamped with the
// timestamp of the sample that completed its window: the estimator only
// knows sample indices, and a grid time extrapolated from the first
// sample drifts from the real one with every jittered gap.
func (s *ingestSeries) refresh(up *core.StreamUpdate, newest time.Time) {
	up.Time = newest
	s.last = up
}

// probe accumulates pre-lock points and locks the interval once enough
// gaps are seen. The buffer is allocated once, at what locks a series
// whose gaps are all positive, and the gaps are sorted on the stack.
// Called with s.mu held.
func (s *ingestSeries) probe(e *IngestEstimator, id string, p series.Point) {
	if s.pending == nil {
		s.pending = make([]series.Point, 0, probeGaps+1)
	}
	s.pending = append(s.pending, p)
	s.lastTime, s.haveLast = p.Time.UnixNano(), true
	var buf [maxPending]time.Duration
	gaps := buf[:0]
	for i := 1; i < len(s.pending); i++ {
		if g := s.pending[i].Time.Sub(s.pending[i-1].Time); g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) < probeGaps {
		// Constant or backwards timestamps never lock.
		s.capPending()
		return
	}
	slices.Sort(gaps)
	interval := gaps[len(gaps)/2]
	est, err := e.newStream(interval)
	if err != nil || !e.setStream(s, est) {
		// Unlockable configuration (e.g. sub-minimum window from the
		// caller), or a detached series; stay in probe mode rather than
		// fail ingest.
		s.capPending()
		return
	}
	s.interval = interval
	e.probes.Add(1)
	for _, q := range s.pending {
		if up := e.push(s, q.Value); up != nil {
			s.refresh(up, q.Time)
		}
	}
	s.pending = nil
}

// newStream returns a series' analysis window on a locked interval. It is
// Hann-tapered: at the serving cut-off a rectangular window's sidelobes
// carry the estimate bins past the band edge, or — the silent direction —
// leave it short of it.
func (e *IngestEstimator) newStream(interval time.Duration) (*core.StreamEstimator, error) {
	return core.NewStreamEstimator(core.StreamConfig{
		Interval:      interval,
		WindowSamples: e.cfg.WindowSamples,
		EmitEvery:     e.cfg.EmitEvery,
		EnergyCutoff:  e.cfg.EnergyCutoff,
		Window:        dsp.Hann{},
	})
}

// setStream makes est s's analysis window (nil drops it), keeping the
// count StateBytes reads. A series eviction detached takes none and
// reports false: only an observer that resolved it just before the
// eviction can still reach it, and its windows would be counted forever.
// Called with s.mu held.
func (e *IngestEstimator) setStream(s *ingestSeries, est *core.StreamEstimator) bool {
	if est != nil && s.evicted {
		return false
	}
	if s.est != nil {
		e.windows[widthSlot(s.est.SampleBytes())].Add(-1)
	}
	if est != nil {
		e.windows[widthSlot(est.SampleBytes())].Add(1)
	}
	s.est = est
	return true
}

// widthSlot is the windows slot of a ring of b bytes a sample: 0 for 0
// (not pushed yet), 1, 2 and 3 for 2, 4 and 8.
func widthSlot(b int) int { return bits.Len(uint(b) >> 1) }

// push feeds v to s's window, moving the window's count to its new width
// when v widens it. Called with s.mu held.
func (e *IngestEstimator) push(s *ingestSeries, v float64) *core.StreamUpdate {
	was := s.est.SampleBytes()
	up := s.est.Push(v)
	if now := s.est.SampleBytes(); now != was {
		e.windows[widthSlot(was)].Add(-1)
		e.windows[widthSlot(now)].Add(1)
	}
	return up
}

// maxPending bounds the probe buffer of a series that stays unlocked, so
// neither a misbehaving client nor a bad configuration can grow it (and
// probe's scan over it) with every point: capPending keeps its newest
// maxPending points, so a probe sees at most one more and sorts at most
// maxPending gaps.
const maxPending = 4 * (probeGaps + 1)

func (s *ingestSeries) capPending() {
	if len(s.pending) > maxPending {
		s.pending = append(s.pending[:0], s.pending[len(s.pending)-maxPending:]...)
	}
}

// reprobe drops the locked grid after sustained gap drift and restarts
// the probe from the current point. Called with s.mu held.
func (s *ingestSeries) reprobe(e *IngestEstimator, id string, p series.Point) {
	e.setStream(s, nil)
	s.interval = 0
	s.drift = 0
	s.policy.Regrid()
	s.last = nil
	s.reprobes++
	s.probe(e, id, p)
}

// Advice returns the live guidance for id, or ok=false when the series
// was never observed.
func (e *IngestEstimator) Advice(id string) (IngestAdvice, bool) {
	e.mu.RLock()
	s := e.series[id]
	e.mu.RUnlock()
	if s == nil {
		return IngestAdvice{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	adv := IngestAdvice{
		Series:        id,
		Samples:       s.samples,
		Interval:      s.interval,
		NyquistRate:   s.lastNyquist,
		Reprobes:      s.reprobes,
		HeldRefreshes: s.policy.Below(),
		HoldTurnover:  e.turnover,
	}
	if s.est != nil {
		adv.Warm = s.est.Warm()
	}
	if up := s.last; up != nil {
		adv.Aliased = up.Err != nil
		adv.AliasStreak = s.policy.AliasStreak()
		// While the policy's trusted estimate stands, lastNyquist is it.
		adv.SuggestedInterval = s.policy.Standing().PollInterval(s.interval, s.lastNyquist)
		adv.UpdatedAt = up.Time
		if up.Result != nil {
			adv.EnergyCaptured = up.Result.EnergyCaptured
		}
	}
	return adv, true
}

// Len returns the number of observed series.
func (e *IngestEstimator) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.series)
}

// StateBytes is what the estimator holds for its series, from counts and
// type sizes rather than a walk: every series' hook state, its retention
// hold included, and every live analysis window — the stream's header
// and its ring of WindowSamples samples, 2, 4 or 8 bytes each as the
// series' readings need (core.StreamEstimator.SampleBytes). A window not
// yet pushed has no ring. Probe buffers, map entries and ids are outside
// it.
func (e *IngestEstimator) StateBytes() int64 {
	total := int64(e.Len()) * int64(unsafe.Sizeof(ingestSeries{}))
	for slot := range e.windows {
		ring := int64(0)
		if slot > 0 {
			ring = int64(e.cfg.WindowSamples) << slot
		}
		total += e.windows[slot].Load() * (int64(unsafe.Sizeof(core.StreamEstimator{})) + ring)
	}
	return total
}

// staleIntervals is how many locked poll intervals a series' newest point
// may age before Stale counts it.
const staleIntervals = 4

// Stale counts the estimated series whose newest point is older than
// staleIntervals locked intervals at now: the sources that stopped
// sending, found at one comparison a series from the cadence the hook
// already knows.
func (e *IngestEstimator) Stale(now time.Time) (n int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, s := range e.series {
		s.mu.Lock()
		if s.interval > 0 && s.haveLast && now.Sub(time.Unix(0, s.lastTime)) > staleIntervals*s.interval {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// Rejected returns the number of observations dropped because the
// MaxSeries cap was hit.
func (e *IngestEstimator) Rejected() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rejected
}

// Evicted returns the number of series aged out by LRU eviction.
func (e *IngestEstimator) Evicted() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.evicted
}

// isCounter: id's metric name, up to its first '{', ends in _total.
func isCounter(id string) bool {
	name, _, _ := strings.Cut(id, "{")
	return strings.HasSuffix(name, "_total")
}

// RewarmPoints is how many of a series' newest stored points a restart
// re-feeds through Observe: a window and core.Persistence+2 refreshes, the
// last on the newest point, plus a counter's priming point.
func (e *IngestEstimator) RewarmPoints(id string) int {
	n := e.cfg.WindowSamples + e.cfg.EmitEvery*(core.Persistence+2)
	if isCounter(id) {
		n++
	}
	return n
}

// Config returns the estimator's effective configuration (defaults
// applied).
func (e *IngestEstimator) Config() IngestConfig { return e.cfg }

// Probes returns the number of interval locks: series that graduated
// from the gap probe to a live analysis window.
func (e *IngestEstimator) Probes() int64 { return e.probes.Load() }

// Reprobes returns the number of drift-triggered interval re-locks
// across all series.
func (e *IngestEstimator) Reprobes() int64 { return e.reprobesTotal.Load() }

// Retunes returns the number of clean-streak estimate refreshes that
// (re)tuned retention via SetNyquistRate: those that changed the series' held
// rate.
func (e *IngestEstimator) Retunes() int64 { return e.retunes.Load() }

// HeldRefreshes returns the number of clean-streak estimate refreshes
// that came in below the series' held rate and changed nothing.
func (e *IngestEstimator) HeldRefreshes() int64 { return e.heldRefreshes.Load() }

// AliasedRefreshes returns the number of estimate refreshes that
// carried the aliased signature — the fleet-wide under-sampling pulse.
func (e *IngestEstimator) AliasedRefreshes() int64 { return e.aliasedRefreshes.Load() }

// IngestSeriesState is one series' durable tuning state: everything a
// restarted estimator needs to keep giving the same advice without
// re-learning from scratch. The sliding analysis window itself is not
// exported — it is rebuilt ("rewarmed") by replaying the newest stored
// points through Observe.
type IngestSeriesState struct {
	// Series is the series id.
	Series string
	// Interval is the locked poll interval (0 = still probing).
	Interval time.Duration
	// Samples counts every point observed for the series.
	Samples int64
	// Reprobes counts interval re-locks from sustained gap drift.
	Reprobes int
	// NyquistRate is the newest clean estimate past the streak.
	NyquistRate float64
	// CleanStreak is the retune debounce counter.
	CleanStreak int
	// HeldRate is the rate retention is held at: what SetNyquistRate last saw
	// (0 = nothing handed over yet).
	HeldRate float64
}

// ExportState captures every series' tuning state for persistence.
func (e *IngestEstimator) ExportState() []IngestSeriesState {
	e.mu.RLock()
	ids := make([]string, 0, len(e.series))
	ptrs := make([]*ingestSeries, 0, len(e.series))
	for id, s := range e.series {
		ids = append(ids, id)
		ptrs = append(ptrs, s)
	}
	e.mu.RUnlock()
	out := make([]IngestSeriesState, 0, len(ids))
	for i, s := range ptrs {
		s.mu.Lock()
		out = append(out, IngestSeriesState{
			Series:      ids[i],
			Interval:    s.interval,
			Samples:     s.samples,
			Reprobes:    s.reprobes,
			NyquistRate: s.lastNyquist,
			CleanStreak: s.policy.CleanStreak(),
			HeldRate:    s.policy.Held(),
		})
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Series < out[b].Series })
	return out
}

// RestoreState reinstates one series' tuning state, replacing any
// existing state for the id: the locked interval comes back immediately
// (no re-probe), the last trusted Nyquist estimate is carried over so
// Advice answers before the analysis window rewarms, and the store is
// retuned to the held rate (core.RatePolicy.Restore). Subject to the same
// MaxSeries cap as Observe; returns false when the cap drops it.
func (e *IngestEstimator) RestoreState(st IngestSeriesState) bool {
	tick := e.clock.Add(1)
	s := e.lookupOrCreate(st.Series, tick)
	if s == nil {
		return false
	}
	s.lastSeen.Store(tick)

	s.mu.Lock()
	defer s.mu.Unlock()
	e.setStream(s, nil)
	s.interval = 0
	s.pending = nil
	s.haveLast = false
	s.drift = 0
	s.last = nil
	s.samples = st.Samples
	s.reprobes = st.Reprobes
	s.lastNyquist = st.NyquistRate
	s.policy.Restore(st.HeldRate, st.CleanStreak)
	if st.Interval > 0 {
		if est, err := e.newStream(st.Interval); err == nil && e.setStream(s, est) {
			s.interval = st.Interval
		}
	}
	if held := s.policy.Held(); held > 0 && e.store != nil {
		e.store.SetNyquistRate(st.Series, held)
	}
	return true
}
