package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dcsim"
)

// ScanConfig parameterizes a fleet Scanner.
type ScanConfig struct {
	// Workers bounds the worker pool; zero selects GOMAXPROCS. A 10k-pair
	// fleet never holds more than Workers traces in memory at once.
	Workers int
	// Window is the stretch of signal time audited per device; zero
	// selects Day, the paper's per-datapoint trace length.
	Window time.Duration
	// WindowSamples, when positive, caps the streaming estimator's
	// sliding window; devices with more polls than this in the audit
	// window are estimated from their trailing window only. Zero analyzes
	// each device's full audit window (the batch-equivalent census).
	WindowSamples int
	// EnergyCutoff is the estimation threshold; zero selects the paper's
	// 99 %.
	EnergyCutoff float64
}

func (c ScanConfig) withDefaults() ScanConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Window <= 0 {
		c.Window = Day
	}
	return c
}

// DeviceResult is the audit outcome for one metric/device pair, streamed
// by Scan as soon as the pair completes.
type DeviceResult struct {
	// Index is the pair's position in Fleet.Devices — the deterministic
	// ordering key aggregation sorts by.
	Index int
	// ID names the metric/device pair.
	ID string
	// Metric is the pair's metric family.
	Metric Metric
	// PollRate is the production sampling rate (hertz).
	PollRate float64
	// Samples is the number of polls analyzed.
	Samples int
	// Result is the Nyquist estimate (nil when Err is a non-aliased
	// failure; populated with Aliased set when Err is ErrAliased).
	Result *core.Result
	// Err is ErrAliased for under-sampled pairs, or the estimation error.
	Err error
}

// Scanner audits fleets concurrently: devices are sharded across a
// bounded worker pool, each worker streams a device's polls through a
// StreamEstimator (bounded memory per pair — no fleet-sized buffering),
// and per-device results arrive over a channel as they complete. Use
// ScanAll for the deterministic fleet-level aggregate.
type Scanner struct {
	cfg ScanConfig
}

// NewScanner validates cfg and returns a Scanner.
func NewScanner(cfg ScanConfig) (*Scanner, error) {
	if cfg.Workers < 0 {
		return nil, errors.New("fleet: negative worker count")
	}
	if cfg.Window < 0 {
		return nil, errors.New("fleet: negative scan window")
	}
	// Validate the estimation knobs once, up front.
	if _, err := core.NewEstimator(core.EstimatorConfig{EnergyCutoff: cfg.EnergyCutoff}); err != nil {
		return nil, err
	}
	return &Scanner{cfg: cfg.withDefaults()}, nil
}

// Scan audits every pair of the fleet and streams results in completion
// order (nondeterministic across runs; aggregate with ScanAll or sort by
// Index for stable output). The channel closes once every pair has been
// reported; the caller must drain it — to stop early, use ScanContext
// and cancel, or the pool's goroutines block forever on the abandoned
// channel.
func (s *Scanner) Scan(f *Fleet) <-chan DeviceResult {
	return s.ScanContext(context.Background(), f)
}

// ScanContext is Scan with cancellation: when ctx is done, workers stop
// picking up devices, in-flight sends are abandoned, and the channel
// closes without the remaining results.
func (s *Scanner) ScanContext(ctx context.Context, f *Fleet) <-chan DeviceResult {
	// Two results per worker let each worker finish its next pair while the
	// reader drains the last one.
	out := make(chan DeviceResult, 2*s.cfg.Workers)
	if f == nil || len(f.Devices) == 0 {
		close(out)
		return out
	}
	jobs := make(chan int)
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				select {
				case out <- s.scanOne(idx, f.Devices[idx]):
				case <-done:
					return
				}
			}
		}()
	}
	go func() {
		defer close(out)
	feed:
		for i := range f.Devices {
			select {
			case jobs <- i:
			case <-done:
				break feed
			}
		}
		close(jobs)
		wg.Wait()
	}()
	return out
}

// ScanAll drains a Scan and aggregates it into a fleet report whose
// contents are independent of worker count and scheduling.
func (s *Scanner) ScanAll(f *Fleet) (*ScanReport, error) {
	if f == nil || len(f.Devices) == 0 {
		return nil, errors.New("fleet: nothing to scan")
	}
	results := make([]DeviceResult, 0, len(f.Devices))
	for r := range s.Scan(f) {
		results = append(results, r)
	}
	return Aggregate(results, s.cfg.Window), nil
}

// scanOne streams one device's audit window through a fresh estimator.
func (s *Scanner) scanOne(idx int, d *dcsim.Device) DeviceResult {
	dr := DeviceResult{
		Index:    idx,
		ID:       d.ID,
		Metric:   d.Metric,
		PollRate: d.PollRate(),
	}
	n := int(s.cfg.Window / d.PollInterval)
	if n < 1 {
		n = 1
	}
	dr.Samples = n
	ws := n
	if s.cfg.WindowSamples > 0 && s.cfg.WindowSamples < ws {
		ws = s.cfg.WindowSamples
	}
	st, err := core.NewStreamEstimator(core.StreamConfig{
		Interval:      d.PollInterval,
		WindowSamples: ws,
		EnergyCutoff:  s.cfg.EnergyCutoff,
		// Updates are read once at the end; push emissions off the hot path.
		EmitEvery: 1 << 30,
	})
	if err != nil {
		dr.Err = err
		return dr
	}
	ivs := d.PollInterval.Seconds()
	for i := 0; i < n; i++ {
		st.Push(d.At(float64(i) * ivs))
	}
	dr.Result, dr.Err = st.Current()
	return dr
}

// MetricSummary is one metric family's row of a fleet report.
type MetricSummary struct {
	// Metric names the family.
	Metric string
	// Devices is the number of pairs audited.
	Devices int
	// Oversampled counts pairs polled above their estimated Nyquist rate.
	Oversampled int
	// Aliased counts pairs whose traces carried the aliased signature.
	Aliased int
	// MedianReduction is the family's median possible rate reduction.
	MedianReduction float64
}

// ScanReport is the fleet-level aggregate of a scan — the Fig. 1 / Fig. 4
// census rolled up per metric family and fleet-wide.
type ScanReport struct {
	// Window is the audited stretch of signal time.
	Window time.Duration
	// Pairs is the number of metric/device pairs audited.
	Pairs int
	// Aliased counts pairs with the aliased signature.
	Aliased int
	// Failed counts pairs whose estimation failed outright.
	Failed int
	// Metrics holds per-family summaries sorted by name.
	Metrics []MetricSummary
	// SamplesCollected is the polls the production rates took over the
	// window, summed fleet-wide.
	SamplesCollected float64
	// SamplesNeeded is the polls the estimated Nyquist rates would have
	// taken instead.
	SamplesNeeded float64
	// Ratios holds every clean pair's reduction ratio, sorted ascending.
	Ratios []float64
}

// Aggregate rolls streamed device results into a report. Results are
// keyed by Index before any order-sensitive statistic, so the output is
// identical however the scan's goroutines interleaved.
func Aggregate(results []DeviceResult, window time.Duration) *ScanReport {
	ordered := append([]DeviceResult(nil), results...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].Index < ordered[b].Index })
	if window <= 0 {
		window = Day
	}
	rep := &ScanReport{Window: window, Pairs: len(ordered)}
	type bucket struct {
		devices, over, aliased int
		ratios                 []float64
	}
	buckets := map[string]*bucket{}
	for _, r := range ordered {
		b := buckets[r.Metric.String()]
		if b == nil {
			b = &bucket{}
			buckets[r.Metric.String()] = b
		}
		b.devices++
		switch {
		case errors.Is(r.Err, core.ErrAliased):
			b.aliased++
			rep.Aliased++
			continue
		case r.Err != nil:
			rep.Failed++
			continue
		}
		if r.Result.Oversampled() {
			b.over++
		}
		b.ratios = append(b.ratios, r.Result.ReductionRatio)
		rep.Ratios = append(rep.Ratios, r.Result.ReductionRatio)
		rep.SamplesCollected += float64(r.Samples)
		rep.SamplesNeeded += r.Result.NyquistRate * window.Seconds()
	}
	names := make([]string, 0, len(buckets))
	for name := range buckets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := buckets[name]
		rep.Metrics = append(rep.Metrics, MetricSummary{
			Metric:          name,
			Devices:         b.devices,
			Oversampled:     b.over,
			Aliased:         b.aliased,
			MedianReduction: median(b.ratios),
		})
	}
	sort.Float64s(rep.Ratios)
	return rep
}

// PipelineReduction is SamplesCollected / SamplesNeeded: how much a
// Nyquist-aware collector shrinks the fleet's pipeline (0 when nothing
// clean was measured).
func (r *ScanReport) PipelineReduction() float64 {
	if r.SamplesNeeded <= 0 {
		return 0
	}
	return r.SamplesCollected / r.SamplesNeeded
}

// FracAbove returns the fraction of clean pairs reducible by at least x.
func (r *ScanReport) FracAbove(x float64) float64 {
	if len(r.Ratios) == 0 {
		return 0
	}
	// Ratios is sorted ascending; find the first element >= x.
	i := sort.SearchFloat64s(r.Ratios, x)
	return float64(len(r.Ratios)-i) / float64(len(r.Ratios))
}

// Render formats the report as the fleet-audit table.
func (r *ScanReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %7s %12s %9s %14s\n", "metric", "devices", "oversampled", "aliased", "median cut")
	for _, m := range r.Metrics {
		fmt.Fprintf(&sb, "%-20s %7d %11.0f%% %8d %13.0fx\n",
			m.Metric, m.Devices, 100*float64(m.Oversampled)/float64(m.Devices), m.Aliased, m.MedianReduction)
	}
	fmt.Fprintf(&sb, "\nfleet-wide: %d pairs audited over %v\n", r.Pairs, r.Window)
	if r.Failed > 0 {
		fmt.Fprintf(&sb, "  WARNING: %d pairs failed estimation and are excluded from the totals below\n", r.Failed)
	}
	fmt.Fprintf(&sb, "  samples collected at production rates: %.0f\n", r.SamplesCollected)
	fmt.Fprintf(&sb, "  samples actually needed:               %.0f\n", r.SamplesNeeded)
	if red := r.PipelineReduction(); red > 0 {
		fmt.Fprintf(&sb, "  => a Nyquist-aware collector shrinks the pipeline %.0fx\n", red)
	}
	fmt.Fprintf(&sb, "  pairs reducible >=100x: %.0f%%   >=1000x: %.0f%%\n",
		100*r.FracAbove(100), 100*r.FracAbove(1000))
	return sb.String()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}
