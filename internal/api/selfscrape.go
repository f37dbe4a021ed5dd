// The self-scrape loop: nyquistd monitoring nyquistd. At each tick the
// loop gathers the server's own registry and ingests every sample into
// the server's own TSDB as an ordinary series — same store, same
// estimator, same WAL. The payoff is the paper's thesis applied to the
// monitor itself: nyquistd_* series get live Nyquist estimates and
// alias/flatline detection like any tenant series, so "the monitor's
// own signal degraded" surfaces through the exact machinery built to
// catch it in others, and the self-view survives a crash because it
// rides the normal durability path.
//
// Feedback is bounded by construction: the scrape writes through
// store.Append, not HTTP, so it never inflates the request metrics it
// records, and histogram _bucket samples are skipped — per-scrape
// cardinality stays at the family count, not family × buckets.

package api

import (
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/series"
)

// SelfScraper periodically feeds the server's registry into its store.
type SelfScraper struct {
	srv      *Server
	interval time.Duration

	runs    *obs.Counter
	samples *obs.Counter
	errs    *obs.Counter
	dur     *obs.Histogram

	startOnce sync.Once
	stopOnce  sync.Once
	stopc     chan struct{}
	donec     chan struct{}
}

// NewSelfScraper returns a stopped scraper ticking at interval once
// started. The scraper registers its own accounting (runs, samples,
// errors, pass duration) in the same registry it scrapes — the loop
// observes itself too.
func (s *Server) NewSelfScraper(interval time.Duration) *SelfScraper {
	reg := s.metrics.reg
	return &SelfScraper{
		srv:      s,
		interval: interval,
		runs: reg.Counter("nyquistd_selfscrape_runs_total",
			"Self-scrape passes completed."),
		samples: reg.Counter("nyquistd_selfscrape_samples_total",
			"Samples ingested into the store by self-scrape passes."),
		errs: reg.Counter("nyquistd_selfscrape_errors_total",
			"Self-scrape samples the store refused (duplicate-timestamp ticks, range errors)."),
		dur: reg.Histogram("nyquistd_selfscrape_seconds",
			"Wall time per self-scrape pass.", nil),
		stopc: make(chan struct{}),
		donec: make(chan struct{}),
	}
}

// ScrapeOnce runs one pass and reports samples landed and store
// rejections. Every sample in a pass shares one timestamp, so each
// nyquistd_* series ticks at exactly the scrape interval — a uniform
// signal the estimator locks onto quickly.
func (sc *SelfScraper) ScrapeOnce() (landed, rejected int) {
	t0 := time.Now()
	for _, smp := range sc.srv.metrics.reg.Gather() {
		if strings.HasSuffix(smp.Name, "_bucket") {
			continue
		}
		if math.IsNaN(smp.Value) || math.IsInf(smp.Value, 0) {
			continue
		}
		id := smp.ID()
		p := series.Point{Time: t0, Value: smp.Value}
		if err := sc.srv.store.Append(id, p); err != nil {
			rejected++
			continue
		}
		sc.srv.ingest.Observe(id, p)
		landed++
	}
	sc.runs.Inc()
	sc.samples.Add(int64(landed))
	sc.errs.Add(int64(rejected))
	sc.dur.ObserveSince(t0)
	return landed, rejected
}

// Start launches the loop; repeated calls are no-ops.
func (sc *SelfScraper) Start() {
	sc.startOnce.Do(func() {
		go func() {
			defer close(sc.donec)
			tick := time.NewTicker(sc.interval)
			defer tick.Stop()
			for {
				select {
				case <-sc.stopc:
					return
				case <-tick.C:
					sc.ScrapeOnce()
				}
			}
		}()
	})
}

// Stop halts the loop and waits for the in-flight pass; repeated calls
// are no-ops. Safe to call on a never-started scraper.
func (sc *SelfScraper) Stop() {
	sc.stopOnce.Do(func() {
		close(sc.stopc)
		// If Start never ran, burn the once so the wait below returns;
		// if it did, this is a no-op and the goroutine closes donec.
		sc.startOnce.Do(func() { close(sc.donec) })
		<-sc.donec
	})
}
