package repro

// Cross-module integration tests: each walks a full operator workflow
// through the public APIs only, crossing dcsim -> monitor -> core ->
// report boundaries the way the figure drivers do.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/fleet"
	"repro/internal/trace"
	"repro/nyquist"
)

var t0 = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

// TestPipelinePollStoreEstimateArchive is the end-to-end a-posteriori
// path: poll a device at the ad-hoc production rate into the store, audit
// the stored series, archive it at the Nyquist rate, and read it back.
func TestPipelinePollStoreEstimateArchive(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	dev, err := fleet.NewDevice("rack1/temp", fleet.Temperature, 2e-4, time.Minute, rng, 1001)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Production polling into the store.
	store := fleet.NewStore(0)
	if err := store.AppendUniform(dev.ID, dev.Trace(t0, 0, 24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if store.Points() != 1440 {
		t.Fatalf("polled %d samples", store.Points())
	}

	// 2. Audit the stored series (irregular-capable path).
	full, err := store.Full(dev.ID)
	if err != nil {
		t.Fatal(err)
	}
	stored := nyquist.NewSeries(full.Points)
	var est nyquist.Estimator
	res, err := est.EstimateSeries(stored)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Oversampled() {
		t.Fatalf("1-minute polls of a %v Hz device must be oversampled", dev.TrueNyquist)
	}
	ratio := res.NyquistRate / dev.TrueNyquist
	if ratio < 0.4 || ratio > 2 {
		t.Fatalf("stored-trace estimate %v vs ground truth %v", res.NyquistRate, dev.TrueNyquist)
	}

	// 3. Re-archive the stored stream at the Nyquist rate.
	archive := fleet.NewStore(0)
	arch, err := fleet.NewArchiver(dev.ID, archive, time.Minute, fleet.ArchiverConfig{
		WindowSamples: 1440,
		QuantStep:     dev.Profile().QuantStep,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range stored.Points() {
		if err := arch.Ingest(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := arch.Flush(); err != nil {
		t.Fatal(err)
	}
	if arch.Reduction() < 4 {
		t.Fatalf("archive reduction = %v, want > 4x", arch.Reduction())
	}

	// 4. Read back at the original rate and compare.
	rec, err := arch.ReadBack(1.0 / 60)
	if err != nil {
		t.Fatal(err)
	}
	orig := stored.Values()
	n := rec.Len()
	if n > len(orig) {
		n = len(orig)
	}
	if n < len(orig)*9/10 {
		t.Fatalf("read back only %d of %d samples", n, len(orig))
	}
	fid, err := nyquist.CompareSignals(orig[:n], rec.Values[:n])
	if err != nil {
		t.Fatal(err)
	}
	if fid.NRMSE > 0.05 {
		t.Fatalf("read-back NRMSE = %v", fid.NRMSE)
	}
}

// TestPipelineCounterMetric walks the counter path: cumulative export,
// differencing, estimation, and a budget decision.
func TestPipelineCounterMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	dev, err := fleet.NewDevice("sw3/discards", fleet.OutboundDiscards, 5e-4, 30*time.Second, rng, 1002)
	if err != nil {
		t.Fatal(err)
	}
	counter := dev.CounterTrace(t0, 0, 24*time.Hour)
	rate, err := fleet.RateFromCounter(counter)
	if err != nil {
		t.Fatal(err)
	}
	var est nyquist.Estimator
	res, err := est.Estimate(rate)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fleet.Allocate([]fleet.Demand{{ID: dev.ID, NyquistRate: res.NyquistRate}}, dev.PollRate())
	if err != nil {
		t.Fatal(err)
	}
	if plan.LosslessCount != 1 {
		t.Fatal("current poll budget must cover the counter's Nyquist demand")
	}
	if plan.Allocations[0].Rate >= dev.PollRate() {
		t.Fatalf("allocator granted %v, the full production rate — no savings", plan.Allocations[0].Rate)
	}
}

// TestPipelineTraceExportImport round-trips a polled series through the
// CSV trace format and re-audits it, the cmd/nyquistscan path.
func TestPipelineTraceExportImport(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	dev, err := fleet.NewDevice("lb2/linkutil", fleet.LinkUtil, 8e-4, 30*time.Second, rng, 1003)
	if err != nil {
		t.Fatal(err)
	}
	u := dev.Trace(t0, 0, 12*time.Hour)

	var buf bytes.Buffer
	buf.WriteString("timestamp,value\n")
	for _, p := range u.Series().Points() {
		fmt.Fprintf(&buf, "%s,%s\n", p.Time.UTC().Format(time.RFC3339Nano), strconv.FormatFloat(p.Value, 'g', -1, 64))
	}
	back, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != u.Len() {
		t.Fatalf("round trip lost samples: %d vs %d", back.Len(), u.Len())
	}
	var est nyquist.Estimator
	direct, err := est.Estimate(u)
	if err != nil {
		t.Fatal(err)
	}
	viaCSV, err := est.EstimateSeries(back)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.NyquistRate-viaCSV.NyquistRate) > 1e-9 {
		t.Fatalf("CSV round trip changed the estimate: %v vs %v", direct.NyquistRate, viaCSV.NyquistRate)
	}
}

// TestPipelineAdaptiveOnFleetDevice runs the §4.2 loop against a fleet
// device with a mid-run burst and verifies the detector/adapter/estimator
// agree end to end.
func TestPipelineAdaptiveOnFleetDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	dev, err := fleet.NewDevice("sw4/fcs", fleet.FCSErrors, 1e-4, 30*time.Second, rng, 1004)
	if err != nil {
		t.Fatal(err)
	}
	dev.AddBurst(fleet.Burst{Start: 30000, Duration: 20000, Freq: 8e-3, Amp: 50})

	sampler, err := nyquist.NewAdaptiveSampler(nyquist.AdaptiveConfig{
		InitialRate:   1.0 / 600,
		MaxRate:       1.0 / 10,
		EpochDuration: 7200,
		Estimator:     nyquist.EstimatorConfig{EnergyCutoff: 0.90},
		Detector:      nyquist.DualRateConfig{Tolerance: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sampler.Run(dev, 0, 86400)
	if err != nil {
		t.Fatal(err)
	}
	// The burst must push at least one epoch's rate above the quiet
	// baseline.
	var quietMax, burstMax float64
	for _, e := range run.Epochs {
		switch {
		case e.Start < 28000:
			if e.Rate > quietMax {
				quietMax = e.Rate
			}
		case e.Start < 50000:
			if e.Rate > burstMax {
				burstMax = e.Rate
			}
		}
	}
	if burstMax <= quietMax {
		t.Fatalf("burst did not raise the rate: quiet %v, burst %v", quietMax, burstMax)
	}
	// And the whole day (including dual-rate probe overhead) must cost
	// less than a static poller provisioned to capture the burst, which
	// must run at the burst's Nyquist rate (2 x 8e-3 Hz) around the
	// clock.
	burstNyquist := 2 * 8e-3
	if static := int(86400 * burstNyquist); run.TotalSamples >= static {
		t.Fatalf("adaptive cost %d not below burst-provisioned static %d", run.TotalSamples, static)
	}
}

// TestPipelineGroupAudit audits a multi-metric device group jointly (§6
// multivariate) from traces collected by one poller.
func TestPipelineGroupAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	names := []string{"cpu", "mem", "link"}
	metrics := []fleet.Metric{fleet.CPUUtil5pct, fleet.MemoryUsage, fleet.LinkUtil}
	bands := []float64{6e-4, 5e-5, 3e-4}
	var traces []*nyquist.Uniform
	var devs []*fleet.Device
	for i := range names {
		d, err := fleet.NewDevice(names[i], metrics[i], bands[i], time.Minute, rng, uint64(1100+i))
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		traces = append(traces, d.Trace(t0, 0, 24*time.Hour))
	}
	var est nyquist.Estimator
	g, err := est.EstimateGroup(names, traces)
	if err != nil {
		t.Fatal(err)
	}
	if g.Names[g.Driver] != "cpu" {
		t.Fatalf("driver = %s, want cpu (the fastest band)", g.Names[g.Driver])
	}
	if g.GroupRate < devs[0].TrueNyquist*0.5 || g.GroupRate > devs[0].TrueNyquist*2 {
		t.Fatalf("group rate %v vs cpu requirement %v", g.GroupRate, devs[0].TrueNyquist)
	}
	// Joint downsampling at the group rate must preserve pairwise
	// correlations.
	worstNRMSE, drift, err := nyquist.GroupRoundTrip(traces, g.GroupRate, 1.5, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if worstNRMSE > 0.25 {
		t.Fatalf("worst member NRMSE = %v", worstNRMSE)
	}
	_ = drift
}

// TestPipelineAlignedGroupFromStore collects two metrics at different
// rates into the store, aligns them onto a common grid, and runs the §6
// group analysis — the full multivariate workflow from raw polls.
func TestPipelineAlignedGroupFromStore(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	fast, err := fleet.NewDevice("cpu", fleet.CPUUtil5pct, 5e-4, 30*time.Second, rng, 1107)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := fleet.NewDevice("mem", fleet.MemoryUsage, 1e-4, 2*time.Minute, rng, 1108)
	if err != nil {
		t.Fatal(err)
	}
	store := fleet.NewStore(0)
	for _, d := range []*fleet.Device{fast, slow} {
		if err := store.AppendUniform(d.ID, d.Trace(t0, 0, 24*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	sCPU, err := store.Full("cpu")
	if err != nil {
		t.Fatal(err)
	}
	sMem, err := store.Full("mem")
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := nyquist.AlignToCommonGrid([]*nyquist.Series{nyquist.NewSeries(sCPU.Points), nyquist.NewSeries(sMem.Points)}, nyquist.NearestNeighbor)
	if err != nil {
		t.Fatal(err)
	}
	if aligned[0].Interval != aligned[1].Interval {
		t.Fatal("alignment failed to unify intervals")
	}
	var est nyquist.Estimator
	g, err := est.EstimateGroup([]string{"cpu", "mem"}, aligned)
	if err != nil {
		t.Fatal(err)
	}
	if g.Names[g.Driver] != "cpu" {
		t.Fatalf("driver = %s, want cpu", g.Names[g.Driver])
	}
	// The aligned grid is the memory poller's coarse one; the group rate
	// must still be at or below it (otherwise joint downsampling at the
	// group rate would be impossible).
	if g.GroupRate > aligned[0].SampleRate() {
		t.Fatalf("group rate %v above the aligned grid rate %v", g.GroupRate, aligned[0].SampleRate())
	}
}

// TestPipelineFleetAdaptiveCost runs the adaptive loop over a mixed
// fleet of simulated devices and checks fleet-level economics.
func TestPipelineFleetAdaptiveCost(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	metrics := []fleet.Metric{fleet.LinkUtil, fleet.CPUUtil5pct, fleet.FCSErrors, fleet.Temperature}
	var adaptiveSamples, staticSamples int
	const dur = 24 * time.Hour
	for i := 0; i < 8; i++ {
		m := metrics[i%len(metrics)]
		p := fleet.ProfileFor(m)
		band := p.NyquistLo / 2 * math.Pow(p.NyquistHi/p.NyquistLo, 0.5)
		dev, err := fleet.NewDevice(m.String(), m, band, 30*time.Second, rng, uint64(2000+i))
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := nyquist.NewAdaptiveSampler(nyquist.AdaptiveConfig{
			InitialRate:   1.0 / 300,
			MaxRate:       1.0 / 30,
			EpochDuration: 4 * 3600,
			Estimator:     nyquist.EstimatorConfig{EnergyCutoff: 0.90},
			Detector:      nyquist.DualRateConfig{Tolerance: 0.25},
		})
		if err != nil {
			t.Fatal(err)
		}
		run, err := sampler.Run(dev, 0, dur.Seconds())
		if err != nil {
			t.Fatalf("%s %d: %v", dev.ID, i, err)
		}
		adaptiveSamples += run.TotalSamples
		staticSamples += int(dur.Seconds() / 30)
	}
	if adaptiveSamples >= staticSamples {
		t.Fatalf("fleet adaptive cost %d not below static 30s cost %d", adaptiveSamples, staticSamples)
	}
}

// TestPipelineAliasedTraceRefusal confirms the toolchain refuses to
// certify savings on an under-sampled trace at every layer.
func TestPipelineAliasedTraceRefusal(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	// True Nyquist 8x the poll rate: badly under-sampled, continuous
	// spectrum.
	dev, err := fleet.NewDevice("bad/dev", fleet.LinkUtil, 1.0/30*4, 30*time.Second, rng, 1005)
	if err != nil {
		t.Fatal(err)
	}
	u := dev.Trace(t0, 0, 24*time.Hour)
	var est nyquist.Estimator
	_, err = est.Estimate(u)
	if err == nil {
		// Harmonic folding can hide aliasing from a single trace (the
		// §4.1 motivation); the dual-rate probe must still catch it.
		det := nyquist.NewDualRateDetector(nyquist.DualRateConfig{})
		v, _, derr := det.Probe(dev, 0, 86400, 1.0/30, 1.0/110)
		if derr != nil {
			t.Fatal(derr)
		}
		if !v.Aliased {
			t.Fatal("neither the estimator nor the dual-rate probe flagged an 8x under-sampled device")
		}
		return
	}
	if !errors.Is(err, nyquist.ErrAliased) {
		t.Fatalf("err = %v, want ErrAliased", err)
	}
}
