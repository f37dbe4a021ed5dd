package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dcsim"
	"repro/internal/monitor"
	"repro/internal/report"
)

// DualRateResult quantifies §4.1: the dual-rate detector's verdicts as the
// slow probe rate sweeps across a signal's true Nyquist rate.
type DualRateResult struct {
	// TrueNyquist is the signal's ground-truth Nyquist rate (Hz).
	TrueNyquist float64
	// Rows holds one sweep step each.
	Rows []DualRateRow
	// Correct counts verdicts matching ground truth.
	Correct int
}

// DualRateRow is one step of the sweep.
type DualRateRow struct {
	// SlowRate is the probe rate under test (Hz).
	SlowRate float64
	// ShouldAlias is the ground truth (SlowRate < TrueNyquist).
	ShouldAlias bool
	// Detected is the detector's verdict.
	Detected bool
	// Score is the spectral divergence behind the verdict.
	Score float64
}

// RunDualRate sweeps the slow probe rate across a band-limited signal's
// Nyquist rate and scores the §4.1 detector against ground truth.
func RunDualRate(seed int64) (*DualRateResult, error) {
	rng := rand.New(rand.NewSource(seed + 41))
	const bandLimit = 0.02 // Hz -> Nyquist rate 0.04 Hz
	sig, err := dcsim.NewBandLimited(rng, bandLimit, 5, 10)
	if err != nil {
		return nil, err
	}
	det := core.NewDualRateDetector(core.DualRateConfig{})
	res := &DualRateResult{TrueNyquist: 2 * bandLimit}
	// Fast companion rate: comfortably above Nyquist, non-integer ratios
	// to every slow rate below.
	const fast = 0.367
	for _, slow := range []float64{0.0095, 0.017, 0.031, 0.047, 0.071, 0.11} {
		v, _, err := det.Probe(sig, 0, 6/bandLimit*4, fast, slow)
		if err != nil {
			return nil, fmt.Errorf("experiments: dual-rate at %v Hz: %w", slow, err)
		}
		row := DualRateRow{
			SlowRate:    slow,
			ShouldAlias: slow < res.TrueNyquist,
			Detected:    v.Aliased,
			Score:       v.Score,
		}
		if row.Detected == row.ShouldAlias {
			res.Correct++
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the sweep table.
func (r *DualRateResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.1 dual-rate aliasing detection (true Nyquist rate %s Hz)\n\n", fmtHz(r.TrueNyquist))
	tb := report.NewTable("slow rate (Hz)", "ground truth", "detected", "score")
	for _, row := range r.Rows {
		tb.AddRow(fmtHz(row.SlowRate), verdict(row.ShouldAlias), verdict(row.Detected), fmt.Sprintf("%.3f", row.Score))
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\n%d/%d verdicts correct.\n", r.Correct, len(r.Rows))
	return b.String()
}

func verdict(aliased bool) string {
	if aliased {
		return "aliased"
	}
	return "clean"
}

// AdaptiveResult quantifies §4.2 end-to-end: static versus adaptive
// polling cost and fidelity on a device with a mid-run regime change.
type AdaptiveResult struct {
	// Comparison is the cost/quality head-to-head; its Run holds the
	// adaptation trace the render plots.
	Comparison *Comparison
}

// RunAdaptive reproduces the §4.2 scenario: a link's FCS-error rate is
// quiet, then a flapping transceiver injects fast oscillations; the
// adaptive poller must probe up during the incident and decay afterwards,
// beating the static poller's cost at comparable fidelity.
func RunAdaptive(seed int64) (*AdaptiveResult, error) {
	rng := rand.New(rand.NewSource(seed + 42))
	dev, err := dcsim.NewDevice("fcs/adaptive", dcsim.FCSErrors, 2e-4, 30*time.Second, rng, uint64(seed)+424)
	if err != nil {
		return nil, err
	}
	const day = 86400.0
	dev.AddBurst(dcsim.Burst{Start: day / 3, Duration: day / 6, Freq: 3e-3, Amp: 25})

	cmp, err := Compare(dev, 0, 24*time.Hour, CompareConfig{
		StaticInterval: 30 * time.Second,
		Adaptive: core.AdaptiveConfig{
			InitialRate:   1.0 / 300,
			MaxRate:       1.0 / 15,
			EpochDuration: 2 * 3600,
			DecreaseAfter: 2,
			Memory:        false,
			// 90 % cut-off: per-epoch windows are short and noisy, and the
			// 2x headroom already covers the tail the lower cut-off drops.
			Estimator: core.EstimatorConfig{EnergyCutoff: 0.90},
		},
		ReferenceRate: 1.0 / 15,
		QuantStep:     dev.Profile().QuantStep,
		Model:         monitor.DefaultCostModel(),
	})
	if err != nil {
		return nil, err
	}
	return &AdaptiveResult{Comparison: cmp}, nil
}

// Render prints the cost/quality comparison and the rate trajectory.
func (r *AdaptiveResult) Render() string {
	var b strings.Builder
	b.WriteString("§4.2 adaptive sampling vs production static polling (FCS errors, 1 day, link flap)\n\n")
	c := r.Comparison
	tb := report.NewTable("quantity", "static", "adaptive")
	tb.AddRow("samples", fmt.Sprintf("%d", c.StaticCost.Samples), fmt.Sprintf("%d", c.AdaptiveCost.Samples))
	tb.AddRow("wire bytes", fmt.Sprintf("%.0f", c.StaticCost.WireBytes), fmt.Sprintf("%.0f", c.AdaptiveCost.WireBytes))
	tb.AddRow("cpu units", fmt.Sprintf("%.0f", c.StaticCost.CPUUnits), fmt.Sprintf("%.0f", c.AdaptiveCost.CPUUnits))
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nCost reduction: %.1fx; reconstruction NRMSE vs dense reference: %.4f\n",
		c.CostReduction, c.Fidelity.NRMSE)
	pts := make([]report.Point, len(c.Run.Epochs))
	for i, e := range c.Run.Epochs {
		pts[i] = report.Point{X: e.Start / 3600, Y: e.Rate}
	}
	b.WriteByte('\n')
	b.WriteString(report.AsciiPlot{Width: 72, Height: 10, Title: "adaptive poll rate (Hz) vs time (hours)"}.Render(pts))
	return b.String()
}

// CutoffAblation sweeps the energy cut-off (DESIGN.md choice 1) and
// reports the median estimated Nyquist rate and reconstruction error at
// each setting, reproducing the paper's argument for 99 %.
type CutoffAblation struct {
	// Rows holds one cut-off setting each.
	Rows []CutoffRow
}

// CutoffRow is one cut-off setting's outcome.
type CutoffRow struct {
	// Cutoff is the energy fraction.
	Cutoff float64
	// MedianNyquist is the median estimate across devices (Hz).
	MedianNyquist float64
	// MedianReduction is the median reduction ratio.
	MedianReduction float64
	// AliasedFrac is the share of traces declared aliased.
	AliasedFrac float64
	// MedianNRMSE is the median round-trip reconstruction error at the
	// estimated rate.
	MedianNRMSE float64
}

// RunCutoffAblation measures the cut-off's effect on a small fleet.
func RunCutoffAblation(seed int64) (*CutoffAblation, error) {
	fleet, err := dcsim.NewFleet(dcsim.FleetConfig{Seed: seed + 43, TotalPairs: 140, UndersampledFraction: -1})
	if err != nil {
		return nil, err
	}
	out := &CutoffAblation{}
	for _, cutoff := range []float64{0.90, 0.99, 0.9999} {
		est, err := core.NewEstimator(core.EstimatorConfig{EnergyCutoff: cutoff})
		if err != nil {
			return nil, err
		}
		var rates, reductions, errs []float64
		aliased := 0
		total := 0
		for _, d := range fleet.Devices {
			u := d.Trace(start, 0, dcsim.Day)
			total++
			res, err := est.Estimate(u)
			if err != nil || res.Aliased {
				aliased++
				continue
			}
			rates = append(rates, res.NyquistRate)
			reductions = append(reductions, res.ReductionRatio)
			if _, fid, err := core.RoundTrip(u, res.NyquistRate, core.ReconstructConfig{}); err == nil {
				errs = append(errs, fid.NRMSE)
			}
		}
		out.Rows = append(out.Rows, CutoffRow{
			Cutoff:          cutoff,
			MedianNyquist:   report.NewCDF(rates).Quantile(0.5),
			MedianReduction: report.NewCDF(reductions).Quantile(0.5),
			AliasedFrac:     float64(aliased) / float64(total),
			MedianNRMSE:     report.NewCDF(errs).Quantile(0.5),
		})
	}
	return out, nil
}

// Render prints the ablation table.
func (r *CutoffAblation) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: energy cut-off (paper §3.2 picks 99%; 99.99% mostly captures noise)\n\n")
	tb := report.NewTable("cutoff", "median Nyquist (Hz)", "median reduction", "aliased", "median NRMSE")
	for _, row := range r.Rows {
		tb.AddRow(fmt.Sprintf("%.4g", row.Cutoff), fmtHz(row.MedianNyquist),
			fmt.Sprintf("%.1fx", row.MedianReduction),
			fmt.Sprintf("%.0f%%", 100*row.AliasedFrac),
			fmt.Sprintf("%.4f", row.MedianNRMSE))
	}
	b.WriteString(tb.String())
	return b.String()
}
