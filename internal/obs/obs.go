// Package obs is the self-observation leg of the serving pipeline: a
// zero-dependency (stdlib-only) metrics subsystem safe to call from the
// ingest hot path, plus Prometheus text-format exposition (expose.go).
//
// The paper's whole premise is that a monitoring system should know its
// own signal quality; a monitor that cannot see itself degrade is the
// exact monitoring-gap-as-failure-signal the estimator exists to catch.
// This package closes that gap for nyquistd: every layer (HTTP, ingest,
// tsdb, WAL, estimator) registers instruments here, GET /metrics
// exposes them, and the self-scrape loop (internal/api) feeds the same
// samples back into nyquistd's own TSDB so alias/flatline detection on
// nyquistd_* series becomes built-in self-health.
//
// Design constraints, in order:
//
//   - Hot-path writes never take a lock. Counter and Gauge are single
//     atomics; Histogram.Observe is a handful of atomics on fixed
//     buckets (no quantile sketches, no allocation). Labeled instruments
//     resolve their label set once (Vec.With) and are cached by the
//     caller; resolution itself is a read-locked map hit.
//
//   - Registration is explicit and panics on conflict. Metric names are
//     config, not data: a name/type collision is a programming error the
//     first request should surface, not silently merge.
//
//   - Reads (exposition, Gather) are consistent enough for monitoring:
//     each sample is an atomic load, but a scrape is not a snapshot —
//     counters scraped mid-batch may disagree transiently. That is the
//     standard Prometheus contract.
package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type, matching the Prometheus exposition
// TYPE keywords.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing count. The zero value is ready
// to use, but counters obtained from a Registry are what exposition
// sees.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; gauges are not hot-path instruments).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: cumulative-on-read bucket
// counts plus a total sum, all atomics. Buckets are chosen at
// registration and never change, so Observe is lock-free: one linear
// scan over ≤ ~16 bounds, two atomic adds, one CAS loop for the sum.
type Histogram struct {
	// bounds are the inclusive upper bounds, strictly increasing; the
	// +Inf bucket is implicit.
	bounds []float64
	// counts[i] counts observations in (bounds[i-1], bounds[i]];
	// counts[len(bounds)] is the +Inf overflow. Non-cumulative in
	// memory, cumulated at exposition.
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0 — the latency
// shorthand used by every timing call site.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets is the default latency histogram layout in seconds:
// 100µs to 10s, roughly log-spaced — wide enough for a group-commit
// fsync and a cold tier-stitched query on the same axis.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// SizeBuckets is the default size/count histogram layout: 1 to 100k,
// log-spaced, for batch line counts and fan-out widths.
var SizeBuckets = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 100000}

// family is one registered metric family: a name, a type, a label
// schema, and the children keyed by label values.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child
	order    []string // registration order of child keys; sorted at expose

	// fn, when set, makes this a function metric: sampled at read time,
	// no children (reporting existing subsystem counters without
	// double-bookkeeping them).
	fn func() float64
}

// child is one labeled instrument inside a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() float64 // set by GaugeVec.Func: read in place of gauge
}

// Registry holds metric families and renders them. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family, creating it on first registration and
// panicking when a re-registration disagrees on type or label schema —
// a name collision is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name: name, help: help, kind: kind,
			labels:   append([]string(nil), labels...),
			bounds:   bounds,
			children: make(map[string]*child),
		}
		r.families[name] = f
		r.names = append(r.names, name)
		return f
	}
	if f.kind != kind || !equalStrings(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type or label schema", name))
	}
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, KindCounter, nil, nil).child(nil).counter
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, KindGauge, nil, nil).child(nil).gauge
}

// Histogram registers (or fetches) an unlabeled histogram. A nil
// buckets selects LatencyBuckets. Bounds must be strictly increasing.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, KindHistogram, nil, checkBuckets(name, buckets)).child(nil).hist
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{r.lookup(name, help, KindCounter, labels, nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: GaugeVec %q needs at least one label", name))
	}
	return &GaugeVec{r.lookup(name, help, KindGauge, labels, nil)}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: HistogramVec %q needs at least one label", name))
	}
	return &HistogramVec{r.lookup(name, help, KindHistogram, labels, checkBuckets(name, buckets))}
}

// GaugeFunc registers a gauge sampled by fn at read time — the bridge
// for subsystems that already keep their own counters (tsdb.Stats, the
// WAL, the estimator): exposition reports their truth without a second
// bookkeeping path that could drift.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, KindGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterFunc is GaugeFunc with counter semantics (the sampled value
// must be monotonic; the sampler is trusted).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, KindCounter, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterVec hands out per-label-set counters.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per label
// name, in registration order), creating it on first use. Hot paths
// should call With once and cache the result.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).counter }

// GaugeVec hands out per-label-set gauges.
type GaugeVec struct{ f *family }

// Func makes the gauge for the given label values sampled by fn at read
// time, as GaugeFunc does for an unlabeled family. Call it before the
// registry is first read.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	c := v.f.child(values)
	v.f.mu.Lock()
	c.fn = fn
	v.f.mu.Unlock()
}

// HistogramVec hands out per-label-set histograms.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).hist }

// child returns the instrument for the given label values, creating it
// on first use. The read-locked fast path makes repeated resolution
// cheap, but callers on hot paths should still cache the result.
func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Int64, len(f.bounds)+1)
		c.hist = h
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

func checkBuckets(name string, b []float64) []float64 {
	if b == nil {
		return LatencyBuckets
	}
	for i := 1; i < len(b); i++ {
		if !(b[i] > b[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q buckets must be strictly increasing", name))
		}
	}
	return b
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
