// Command monitorsim runs the monitoring pipeline end to end: over a
// single simulated device (the static-versus-adaptive cost/quality
// comparison, the paper's thesis in miniature) or — with -scenario —
// over a whole workload regime driven by the closed-loop fleet
// controller: Scanner census, per-round streaming estimation, budgeted
// rate allocation, Nyquist-tuned storage retention.
//
// Usage:
//
//	monitorsim [-metric temperature] [-interval 30s] [-hours 24] [-seed 1] [-burst]
//	monitorsim -scenario diurnal [-devices 1000] [-rounds 0] [-budget 1] [-seed 1]
//	monitorsim -push http://127.0.0.1:9464 [-push-samples 1024] [-push-batch 256]
//	monitorsim -push-bulk 127.0.0.1:9465 [-push-samples 65536] [-push-batch 4096] [-push-min-rate 25000]
//	monitorsim -list-scenarios
//
// -push switches to load-generator mode against a running nyquistd: a
// synthetic known-Nyquist diurnal series is ingested over HTTP in
// batches, then the server's estimate endpoint is asserted to have
// converged near the ground truth and the query and stats endpoints are
// exercised — the CI server-smoke contract. The exit status is non-zero
// when the server's estimate misses the quality bar.
//
// -burst injects a link-flap-style transient a third of the way in, the
// §4.2 scenario that forces the adaptive poller to probe up and back
// down. -scenario selects a regime from the catalog (see
// -list-scenarios); -budget scales the fleet-wide sample budget as a
// fraction of the production rate (0 = the regime's default).
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/fleet"
	"repro/internal/api"
	"repro/internal/monitor"
	"repro/nyquist"
)

func main() {
	var (
		metricName = flag.String("metric", "temperature", "metric family (see -list)")
		interval   = flag.Duration("interval", 30*time.Second, "production (static) poll interval")
		hours      = flag.Float64("hours", 24, "simulated duration in hours")
		seed       = flag.Int64("seed", 1, "device seed")
		burst      = flag.Bool("burst", false, "inject a transient high-frequency event")
		list       = flag.Bool("list", false, "list metric families and exit")

		scenario  = flag.String("scenario", "", "run the closed-loop controller on this workload regime (see -list-scenarios)")
		devices   = flag.Int("devices", 0, "fleet size for -scenario (0 = the regime's default)")
		rounds    = flag.Int("rounds", 0, "max control rounds (0 = the regime's convergence bound)")
		budget    = flag.Float64("budget", 0, "fleet sample budget as a fraction of the production rate (0 = regime default)")
		listScens = flag.Bool("list-scenarios", false, "list the scenario catalog and exit")

		push         = flag.String("push", "", "load-generator mode: base URL of a running nyquistd to drive")
		pushSamples  = flag.Int("push-samples", 1024, "samples to ingest in -push mode")
		pushBatch    = flag.Int("push-batch", 256, "lines per ingest batch in -push mode")
		pushSeries   = flag.String("push-series", "sim/diurnal/gauge", "series id used in -push mode")
		pushScenario = flag.String("push-scenario", "", "with -push: replay a catalog regime's wire traffic against the server (see -list-scenarios)")
		pushBegin    = flag.Int("push-begin", 0, "first wire round to send in -push-scenario mode (earlier rounds are skipped, not sent)")
		pushEnd      = flag.Int("push-end", 0, "one past the last wire round to send (0 = the regime's round bound)")

		pushBulk    = flag.String("push-bulk", "", "load-generator mode: host:port of a nyquistd bulk lane (-bulk-addr) to drive over plain TCP")
		pushMinRate = flag.Float64("push-min-rate", 0, "with -push-bulk: fail unless the achieved ingest rate reaches this many points/s (0 = no floor)")
	)
	flag.Parse()

	if *list {
		for _, m := range fleet.AllMetrics() {
			p := fleet.ProfileFor(m)
			fmt.Printf("%-20s %-8s nyquist %.3g..%.3g Hz\n", key(p.Name), p.Unit, p.NyquistLo, p.NyquistHi)
		}
		return
	}
	if *listScens {
		for _, sp := range fleet.Scenarios() {
			tag := ""
			if sp.Hostile {
				tag = " [hostile wire]"
			}
			fmt.Printf("%-12s %s (default %d devices, <=%d rounds, quality bar %.0f%% of swing)%s\n",
				sp.Name, sp.Description, sp.DefaultDevices, sp.MaxRounds, 100*sp.QualityBar, tag)
		}
		return
	}
	if *push != "" {
		if *pushScenario != "" {
			runPushScenario(*push, *pushScenario, *seed, *devices, *pushBegin, *pushEnd, *pushBatch)
			return
		}
		runPush(*push, *pushSeries, *pushSamples, *pushBatch)
		return
	}
	if *pushBulk != "" {
		runPushBulk(*pushBulk, *pushSamples, *pushBatch, *pushMinRate)
		return
	}
	if *scenario != "" {
		runScenario(*scenario, *seed, *devices, *rounds, *budget)
		return
	}
	if *pushScenario != "" {
		fatal(fmt.Errorf("-push-scenario needs -push URL (a running nyquistd to drive)"))
	}

	metric, ok := findMetric(*metricName)
	if !ok {
		fmt.Fprintf(os.Stderr, "monitorsim: unknown metric %q (try -list)\n", *metricName)
		os.Exit(2)
	}
	p := fleet.ProfileFor(metric)
	rng := rand.New(rand.NewSource(*seed))
	// Band limit in the middle of the metric's log range.
	bandLimit := p.NyquistLo / 2 * math.Pow(p.NyquistHi/p.NyquistLo, 0.6)
	dev, err := fleet.NewDevice("sim/"+key(p.Name), metric, bandLimit, *interval, rng, uint64(*seed))
	if err != nil {
		fatal(err)
	}
	dur := time.Duration(*hours * float64(time.Hour))
	if *burst {
		dev.AddBurst(fleet.Burst{
			Start:    dur.Seconds() / 3,
			Duration: dur.Seconds() / 6,
			Freq:     50 * dev.TrueNyquist,
			Amp:      3 * p.Swing,
		})
	}

	fmt.Printf("device: %s (true Nyquist rate %.3g Hz, %s quantum %.3g)\n",
		dev.ID, dev.TrueNyquist, p.Unit, p.QuantStep)
	fmt.Printf("static poll interval: %v over %v\n\n", *interval, dur)

	staticRate := 1 / interval.Seconds()
	cmp, err := fleet.Compare(dev, 0, dur, fleet.CompareConfig{
		StaticInterval: *interval,
		Adaptive: nyquist.AdaptiveConfig{
			InitialRate:   staticRate / 10,
			MaxRate:       staticRate,
			EpochDuration: dur.Seconds() / 12,
			DecreaseAfter: 2,
			Estimator:     nyquist.EstimatorConfig{EnergyCutoff: 0.90},
		},
		ReferenceRate: staticRate,
		QuantStep:     p.QuantStep,
		Model:         fleet.DefaultCostModel(),
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("static:    %s\n", cmp.StaticCost)
	fmt.Printf("adaptive:  %s (converged at %.3g Hz)\n", cmp.AdaptiveCost, cmp.Run.FinalRate)
	fmt.Printf("\ncost reduction:       %.1fx\n", cmp.CostReduction)
	fmt.Printf("reconstruction NRMSE: %.4f (max error %.3g %s)\n",
		cmp.Fidelity.NRMSE, cmp.Fidelity.MaxAbs, p.Unit)
	if cmp.CostReduction > 1 {
		fmt.Printf("\nThe production rate can be cut %.0fx with near-lossless reconstruction.\n", cmp.CostReduction)
	} else {
		fmt.Println("\nThe production rate is near (or below) the requirement; adaptation cannot cut it.")
	}

	reportStorage(dev, *interval, dur)
}

// runScenario drives the closed-loop controller over a catalog regime:
// census the fleet with the concurrent scanner, then iterate the
// estimate → budgeted poll rate → retention loop until rates converge.
// Hostile regimes attack the ingest wire rather than the control loop,
// so they run through the in-process ingest harness instead.
func runScenario(name string, seed int64, devices, rounds int, budgetFrac float64) {
	sc, err := fleet.BuildScenario(name, seed, devices)
	if err != nil {
		fatal(err)
	}
	if sc.Spec.Hostile {
		rep, err := fleet.RunHostile(sc, fleet.HostileConfig{Rounds: rounds})
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Render())
		return
	}
	prod := 0.0
	for _, d := range sc.Fleet.Devices {
		prod += d.PollRate()
	}
	if budgetFrac <= 0 {
		budgetFrac = sc.Spec.BudgetFraction
	}
	ctl, err := fleet.NewController(sc, fleet.ControllerConfig{
		BudgetHz:    prod * budgetFrac,
		InitialScan: true,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scenario %q: %s\n", sc.Spec.Name, sc.Spec.Description)
	fmt.Printf("fleet: %d devices at %.4g Hz production, budget %.4g Hz (%.2gx production)\n\n",
		len(sc.Fleet.Devices), prod, prod*budgetFrac, budgetFrac)
	fmt.Println("scanner census (production rates):")
	fmt.Print(ctl.CensusReport().Render())
	rep, err := ctl.Run(rounds)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.Render())
}

// runPush is the nyquistd load generator: ingest a synthetic
// known-Nyquist diurnal gauge over HTTP, then hold the server's
// estimate to the ground truth — the paper's estimate→retain loop
// checked across a real network boundary.
//
// The signal is the serving test workload: the diurnal fundamental plus
// a 4x harmonic (true Nyquist 8 cycles/day), polled every 675 s (128
// polls/day, 16x oversampled) and quantized to a quarter unit, so the
// daemon's default 256-sample window holds exactly two days and both
// tones sit on analysis bins.
func runPush(baseURL, id string, samples, batch int) {
	const (
		f0      = 1.0 / 86400
		nyquist = 2 * 4 * f0
		step    = 675 * time.Second
	)
	if samples < 512 {
		samples = 512 // below two windows the convergence check is meaningless
	}
	if batch < 1 {
		batch = 256
	}
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	value := func(i int) float64 {
		ts := float64(i) * step.Seconds()
		v := 40 + 8*math.Sin(2*math.Pi*f0*ts) + 6.4*math.Sin(2*math.Pi*4*f0*ts+1)
		return math.Round(v*4) / 4
	}
	client := &http.Client{Timeout: 30 * time.Second}
	fmt.Printf("push: driving %s with %d samples of %q (true Nyquist %.6g Hz, %v polls)\n",
		baseURL, samples, id, nyquist, step)
	var sb strings.Builder
	sent := 0
	flush := func() {
		if sb.Len() == 0 {
			return
		}
		out, status := postIngest(client, baseURL, "push", sb.String())
		if status != http.StatusOK || out.Rejected != 0 {
			fatal(fmt.Errorf("push: ingest batch failed: HTTP %d, %d rejected", status, out.Rejected))
		}
		sent += out.Accepted
		sb.Reset()
	}
	for i := 0; i < samples; i++ {
		fmt.Fprintf(&sb, "{\"series\":%q,\"ts\":%d,\"value\":%.2f}\n",
			id, start.Add(time.Duration(i)*step).Unix(), value(i))
		if (i+1)%batch == 0 {
			flush()
		}
	}
	flush()
	fmt.Printf("push: ingested %d points in batches of %d\n", sent, batch)

	var est api.EstimateResponse
	getJSON(client, baseURL+"/api/v1/estimate?series="+url.QueryEscape(id), &est)
	fmt.Printf("push: server estimate %.6g Hz (truth %.6g Hz), interval %.0f s, warm=%v aliased=%v retention=%.6g Hz\n",
		est.NyquistHz, nyquist, est.IntervalSeconds, est.Warm, est.Aliased, est.RetentionNyquistHz)
	if !est.Warm {
		fatal(fmt.Errorf("push: estimate not warm after %d samples", sent))
	}
	if est.Aliased {
		fatal(fmt.Errorf("push: clean diurnal series flagged aliased"))
	}
	// The diurnal regime's reconstruction quality bar is 35%% of swing;
	// hold the rate estimate itself to a tighter 25%% relative band.
	if rel := math.Abs(est.NyquistHz-nyquist) / nyquist; rel > 0.25 {
		fatal(fmt.Errorf("push: estimate %.6g Hz misses ground truth %.6g Hz by %.0f%%", est.NyquistHz, nyquist, 100*rel))
	}
	if est.RetentionNyquistHz == 0 {
		fatal(fmt.Errorf("push: retention was never retuned from the ingest estimates"))
	}

	var q api.QueryResponse
	from := start.Add(time.Duration(samples*3/4) * step).Format(time.RFC3339)
	getJSON(client, baseURL+"/api/v1/query?series="+url.QueryEscape(id)+"&from="+url.QueryEscape(from)+"&max_points=100", &q)
	if len(q.Points) == 0 {
		fatal(fmt.Errorf("push: recent-window query returned nothing"))
	}
	var st api.StatsResponse
	getJSON(client, baseURL+"/api/v1/stats", &st)
	fmt.Printf("push: query returned %d points (thinned=%v); store holds %d appends at %.2f bytes/point\n",
		len(q.Points), q.Thinned, st.Appends, st.BytesPerPoint)
	fmt.Println("push: PASS — estimate converged near ground truth across the HTTP boundary")
}

// runPushBulk drives a nyquistd bulk lane (see docs/API.md "Bulk lane"):
// length-prefixed JSON-lines frames over one plain-TCP connection,
// spread across 16 series, with per-frame response accounting held to
// the ingest contract (every sent line accepted). Timestamps ascend from
// a recent wall-clock base so repeated runs against the same strict-
// append server keep landing. With -push-min-rate the achieved rate is a
// hard floor — the CI smoke job's regression tripwire for the bulk path.
func runPushBulk(addr string, samples, batch int, minRate float64) {
	const nSeries = 16
	if samples < 1 {
		samples = 1
	}
	if batch < 1 {
		batch = 4096
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("push-bulk: dial %s: %w", addr, err))
	}
	defer conn.Close()
	start := time.Now().Add(-time.Duration(samples/nSeries+1) * time.Second).Truncate(time.Second)
	var (
		buf                bytes.Buffer
		hdr                [4]byte
		accepted, rejected int
		frames             int
	)
	sendFrame := func() {
		if buf.Len() == 0 {
			return
		}
		binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
		if _, err := conn.Write(hdr[:]); err != nil {
			fatal(fmt.Errorf("push-bulk: write frame header: %w", err))
		}
		if _, err := conn.Write(buf.Bytes()); err != nil {
			fatal(fmt.Errorf("push-bulk: write frame: %w", err))
		}
		buf.Reset()
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			fatal(fmt.Errorf("push-bulk: read response header: %w", err))
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			fatal(fmt.Errorf("push-bulk: read response: %w", err))
		}
		var out struct {
			Accepted int    `json:"accepted"`
			Rejected int    `json:"rejected"`
			Error    string `json:"error"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			fatal(fmt.Errorf("push-bulk: decode response: %w", err))
		}
		if out.Error != "" {
			fatal(fmt.Errorf("push-bulk: server error: %s", out.Error))
		}
		accepted += out.Accepted
		rejected += out.Rejected
		frames++
	}
	fmt.Printf("push-bulk: driving %s with %d samples across %d series, %d lines per frame\n",
		addr, samples, nSeries, batch)
	t0 := time.Now()
	for i := 0; i < samples; i++ {
		ts := start.Add(time.Duration(i/nSeries) * time.Second)
		v := 40 + 8*math.Sin(2*math.Pi*float64(i)/4096)
		fmt.Fprintf(&buf, "{\"series\":\"bulk/dev%02d/metric\",\"ts\":%d,\"value\":%.3f}\n",
			i%nSeries, ts.Unix(), v)
		if (i+1)%batch == 0 {
			sendFrame()
		}
	}
	sendFrame()
	elapsed := time.Since(t0)
	rate := float64(accepted) / elapsed.Seconds()
	fmt.Printf("push-bulk: %d frames, accepted=%d rejected=%d in %v (%.0f points/s)\n",
		frames, accepted, rejected, elapsed.Round(time.Millisecond), rate)
	if accepted+rejected != samples {
		fatal(fmt.Errorf("push-bulk: sent %d lines, server accounted %d", samples, accepted+rejected))
	}
	if rejected != 0 {
		fatal(fmt.Errorf("push-bulk: %d lines rejected (expected a clean ascending stream)", rejected))
	}
	if minRate > 0 && rate < minRate {
		fatal(fmt.Errorf("push-bulk: %.0f points/s is below the -push-min-rate floor of %.0f", rate, minRate))
	}
	fmt.Println("push-bulk: PASS — bulk lane accounting matches and the rate floor held")
}

// runPushScenario replays a catalog regime's wire traffic against a
// running nyquistd: the same deterministic WireGen stream the golden
// reports pin, shipped over HTTP. Rounds [0, begin) are generated and
// discarded (so a restarted client resumes mid-scenario with churn
// epochs, skew state and backfill queues intact) and rounds [begin, end)
// are sent. Unlike -push, rejected lines are not fatal — hostile regimes
// exist to make the server reject truthfully — and a fully-rejected
// batch (HTTP 400, e.g. a crash-recovery duplicate replay) is part of
// the contract. The summary lines are machine-parseable; the chaos
// harness greps them.
func runPushScenario(baseURL, name string, seed int64, devices, begin, end, batch int) {
	sc, err := fleet.BuildScenario(name, seed, devices)
	if err != nil {
		fatal(err)
	}
	if end <= 0 {
		end = sc.Spec.MaxRounds
	}
	if begin < 0 || begin > end {
		fatal(fmt.Errorf("push-scenario: bad round range [%d, %d)", begin, end))
	}
	if batch < 1 {
		batch = 256
	}
	g := fleet.NewWireGen(sc, fleet.WireConfig{})
	g.SkipRounds(begin)

	client := &http.Client{Timeout: 30 * time.Second}
	var emitted, late, accepted, rejected, estDropped int
	var sb strings.Builder
	pending := 0
	flush := func() {
		if pending == 0 {
			return
		}
		out, status := postIngest(client, baseURL, "push-scenario", sb.String())
		// 400 = every line rejected: legitimate under hostile traffic.
		if status != http.StatusOK && status != http.StatusBadRequest {
			fatal(fmt.Errorf("push-scenario: ingest batch failed: HTTP %d", status))
		}
		if out.Accepted+out.Rejected != pending {
			fatal(fmt.Errorf("push-scenario: sent %d lines, server accounted %d accepted + %d rejected",
				pending, out.Accepted, out.Rejected))
		}
		accepted += out.Accepted
		rejected += out.Rejected
		estDropped += out.EstimatorDropped
		sb.Reset()
		pending = 0
	}
	fmt.Printf("push-scenario: regime=%s seed=%d devices=%d rounds=[%d,%d) -> %s\n",
		sc.Spec.Name, sc.Seed, len(sc.Fleet.Devices), begin, end, baseURL)
	for r := begin; r < end; r++ {
		for _, ws := range g.Round() {
			emitted++
			if ws.Late {
				late++
			}
			fmt.Fprintf(&sb, "{\"series\":%q,\"ts\":%q,\"value\":%g}\n",
				ws.ID, ws.Time.UTC().Format(time.RFC3339Nano), ws.Value)
			if pending++; pending >= batch {
				flush()
			}
		}
		flush()
		fmt.Printf("push-scenario: round %d done: emitted=%d accepted=%d rejected=%d\n", r+1, emitted, accepted, rejected)
	}
	fmt.Printf("push-scenario: totals emitted=%d late=%d accepted=%d rejected=%d estimator_dropped=%d\n",
		emitted, late, accepted, rejected, estDropped)
	// The probe series anchors external recovery checks: a device whose
	// wire id never churns, with its ground truth.
	probe := sc.Fleet.Devices[0]
	fmt.Printf("push-scenario: probe-series %s true-nyquist %.9g\n", probe.ID, probe.TrueNyquist)
}

// getJSON fetches url into out, failing the run on transport, status or
// decode errors.
func getJSON(client *http.Client, url string, out any) {
	resp, err := client.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		fatal(fmt.Errorf("GET %s: decode: %w", url, err))
	}
}

// reportStorage feeds the production polls once more into the sharded
// multi-resolution store and, point by point, through the ingest hook
// nyquistd runs, whose estimates retune the retention tiers (the
// estimate→retain loop), then prints the operator's retention and query
// view of the storage leg.
func reportStorage(dev *fleet.Device, interval time.Duration, dur time.Duration) {
	n := int(dur.Seconds() / interval.Seconds())
	if n < 256 {
		return // too short a run for a meaningful retention story
	}
	store := fleet.NewTieredStore(fleet.StoreConfig{
		Retention: fleet.RetentionConfig{RawCapacity: n / 8, TierCapacity: n / 16},
	})
	// The default 256-sample window, refreshed every quarter window.
	est := monitor.NewIngestEstimator(store, monitor.IngestConfig{EmitEvery: 64})
	start := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)
	trace := dev.Trace(start, 0, dur)
	for i, v := range trace.Values {
		p := nyquist.Point{Time: trace.TimeAt(i), Value: v}
		if err := store.Append(dev.ID, p); err != nil {
			fatal(err)
		}
		est.Observe(dev.ID, p)
	}

	st := store.Stats()
	fmt.Printf("\nstorage leg (tsdb, %d-point raw store):\n", n/8)
	fmt.Printf("  %d writes -> %d retained (%d compacted into tiers, %d dropped)\n",
		st.Appends, st.Retained(), st.Compacted, st.Dropped)
	for _, s := range store.Snapshot() {
		if s.NyquistRate > 0 {
			fmt.Printf("  retention tuned to %.4g Hz by the ingest estimator\n", s.NyquistRate)
		}
		for i, t := range s.Tiers {
			if t.Buckets == 0 {
				continue
			}
			fmt.Printf("  tier %d: %4d buckets @ %v (%d samples summarized)\n",
				i+1, t.Buckets, t.Width, t.Samples)
		}
	}
	res, err := store.Query(dev.ID, start, start.Add(dur), 24)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  query full run (budget 24): %d points, thinned=%v, tiers:", len(res.Points), res.Thinned)
	for _, ts := range res.Tiers {
		fmt.Printf(" [%d: %d pts]", ts.Tier, ts.Points)
	}
	fmt.Println()
}

func findMetric(name string) (fleet.Metric, bool) {
	want := key(name)
	for _, m := range fleet.AllMetrics() {
		if key(m.String()) == want {
			return m, true
		}
	}
	return 0, false
}

// key normalizes a metric name for matching: lower case, alphanumerics
// only.
func key(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "monitorsim:", err)
	os.Exit(1)
}

// postIngest posts one JSON-lines batch and decodes the reply; mode
// prefixes a decode failure.
func postIngest(client *http.Client, baseURL, mode, body string) (api.IngestResponse, int) {
	resp, err := client.Post(baseURL+"/api/v1/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	var out api.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		fatal(fmt.Errorf("%s: decode ingest response: %w", mode, err))
	}
	return out, resp.StatusCode
}
