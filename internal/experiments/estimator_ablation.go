package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dcsim"
	"repro/internal/dsp"
	"repro/internal/report"
	"repro/internal/series"
)

// EstimatorAblation compares estimator variants (DESIGN.md choices 2 and
// 4, plus the Welch option) on the same fleet: plain FFT with mean
// removal (the paper's method), linear detrending, Hann windowing, and
// Welch averaging. Accuracy is scored against the devices' ground-truth
// Nyquist rates — knowable only because the fleet is synthetic.
type EstimatorAblation struct {
	// Rows holds one variant each.
	Rows []EstimatorVariantRow
}

// EstimatorVariantRow is one variant's accuracy summary.
type EstimatorVariantRow struct {
	// Name identifies the variant.
	Name string
	// MedianRatio is the median of estimate/truth across devices (1 is
	// perfect; above 1 over-estimates, wasting samples; below 1
	// under-estimates, risking aliasing).
	MedianRatio float64
	// WithinFactor2 is the share of devices whose estimate lands within
	// 2x of ground truth.
	WithinFactor2 float64
	// AliasedFrac is the share of traces the variant refused.
	AliasedFrac float64
}

// RunEstimatorAblation scores the variants over a 140-pair fleet.
func RunEstimatorAblation(seed int64) (*EstimatorAblation, error) {
	fleet, err := dcsim.NewFleet(dcsim.FleetConfig{Seed: seed + 44, TotalPairs: 140, UndersampledFraction: -1})
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		cfg  core.EstimatorConfig
	}{
		{"paper (FFT, mean removal)", core.EstimatorConfig{}},
		{"linear detrend", core.EstimatorConfig{Detrend: core.DetrendLinear}},
		{"hann window", core.EstimatorConfig{Window: dsp.Hann{}}},
		{"welch (8 segments)", core.EstimatorConfig{Welch: true}},
	}
	out := &EstimatorAblation{}
	for _, v := range variants {
		est, err := core.NewEstimator(v.cfg)
		if err != nil {
			return nil, err
		}
		var ratios []float64
		within := 0
		aliased := 0
		usable := 0
		for _, d := range fleet.Devices {
			// Score only devices whose requirement the one-day window
			// can actually resolve.
			if d.TrueNyquist < 4*2.0/86400 {
				continue
			}
			usable++
			u := d.Trace(start, 0, dcsim.Day)
			res, err := est.Estimate(u)
			if err != nil || res.Aliased {
				aliased++
				continue
			}
			r := res.NyquistRate / d.TrueNyquist
			ratios = append(ratios, r)
			if r >= 0.5 && r <= 2 {
				within++
			}
		}
		row := EstimatorVariantRow{Name: v.name}
		if usable > 0 {
			row.AliasedFrac = float64(aliased) / float64(usable)
			row.WithinFactor2 = float64(within) / float64(usable)
		}
		row.MedianRatio = report.NewCDF(ratios).Quantile(0.5)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the variant comparison.
func (r *EstimatorAblation) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: estimator variants vs ground truth (resolvable devices only)\n\n")
	tb := report.NewTable("variant", "median est/truth", "within 2x", "refused")
	for _, row := range r.Rows {
		tb.AddRow(row.Name,
			fmt.Sprintf("%.2f", row.MedianRatio),
			fmt.Sprintf("%.0f%%", 100*row.WithinFactor2),
			fmt.Sprintf("%.0f%%", 100*row.AliasedFrac))
	}
	b.WriteString(tb.String())
	b.WriteString("\nThe paper's plain method is already well calibrated on harmonic telemetry;\nwindowing/averaging trade a little ratio bias for noise robustness, and\nlinear detrending only matters when windows under-span the slowest cycle.\n")
	return b.String()
}

// TaperAblation decomposes the serving estimator's error (ROADMAP 4b):
// taper × energy cut-off × window length over the two-tone family the
// end-to-end benchmark's estimate_rel_err_p50 is a median of, each series
// read through the window that ends at the benchmark's checkpoint.
type TaperAblation struct {
	// Rows holds one configuration each, in taper, cut-off, length order.
	Rows []TaperRow
}

// TaperRow is one configuration's error over the family; an error is
// (estimate − truth)/truth against the series' true Nyquist rate 2·f_max.
type TaperRow struct {
	// Taper is "rect" or "hann"; Cutoff the energy fraction; Samples the
	// window length.
	Taper   string
	Cutoff  float64
	Samples int
	// MedianAbs and P90Abs are quantiles of |error|.
	MedianAbs, P90Abs float64
	// SignedP10, SignedP50 and SignedP90 are quantiles of the error.
	SignedP10, SignedP50, SignedP90 float64
	// UnderFrac is the share estimated below truth — the direction that
	// aliases.
	UnderFrac float64
}

// twoToneFamily is the benchmark's fixed signal set, re-derived here
// (bench/gen.go draws it; the benchmark must stay free to pin this
// module's names, not the reverse): n series of base + two sines, both
// tones log-stratified over [1/64, 1/6] Hz, the second tone's amplitude
// at least half the first's, drawn from splitmix64 at a constant seed.
// It returns each series' sample function and true Nyquist rate.
func twoToneFamily(n int) (at []func(k int) float64, nyquist []float64) {
	const fLo, fHi, stride = 1.0 / 64, 1.0 / 6, 389
	state := uint64(0x6e797175697374)
	draw := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return float64((z^z>>31)>>11) / (1 << 53)
	}
	for k := 0; k < n; k++ {
		base := 30 + 40*draw()
		u1 := (float64(k) + draw()) / float64(n)
		u2 := (float64(k*stride%n) + draw()) / float64(n)
		a1, f1, p1 := 2+8*draw(), fLo*math.Pow(fHi/fLo, u1), 2*math.Pi*draw()
		a2, f2, p2 := a1*(0.5+0.5*draw()), fLo*math.Pow(fHi/fLo, u2), 2*math.Pi*draw()
		at = append(at, func(k int) float64 {
			t := float64(k)
			v := base + a1*math.Sin(2*math.Pi*f1*t+p1) + a2*math.Sin(2*math.Pi*f2*t+p2)
			return math.Round(v*100) / 100 // two decimals on the wire
		})
		nyquist = append(nyquist, 2*math.Max(f1, f2))
	}
	return at, nyquist
}

// RunTaperAblation scores {rectangular, Hann} × {0.90, 0.99} × {64, 128,
// 256, 512} samples over the benchmark's 512 series at 1 Hz.
func RunTaperAblation() (*TaperAblation, error) {
	const fleet, checkpoint = 512, 4096 + 11264 // the bulk workloads' series and samples per series
	at, nyquist := twoToneFamily(fleet)
	out := &TaperAblation{}
	for _, taper := range []dsp.Window{nil, dsp.Hann{}} {
		name := "rect"
		if taper != nil {
			name = taper.Name()
		}
		for _, cutoff := range []float64{0.90, 0.99} {
			est, err := core.NewEstimator(core.EstimatorConfig{EnergyCutoff: cutoff, Window: taper})
			if err != nil {
				return nil, err
			}
			for _, samples := range []int{64, 128, 256, 512} {
				signed := make([]float64, fleet)
				abs := make([]float64, fleet)
				under := 0
				vals := make([]float64, samples)
				for i := range at {
					for k := range vals {
						vals[k] = at[i](checkpoint - samples + k)
					}
					res, err := est.Estimate(&series.Uniform{Start: start, Interval: time.Second, Values: vals})
					if err != nil {
						return nil, fmt.Errorf("series %d, %s/%v/%d: %w", i, name, cutoff, samples, err)
					}
					signed[i] = (res.NyquistRate - nyquist[i]) / nyquist[i]
					abs[i] = math.Abs(signed[i])
					if signed[i] < 0 {
						under++
					}
				}
				out.Rows = append(out.Rows, TaperRow{
					Taper: name, Cutoff: cutoff, Samples: samples,
					MedianAbs: series.Percentile(abs, 50), P90Abs: series.Percentile(abs, 90),
					SignedP10: series.Percentile(signed, 10), SignedP50: series.Percentile(signed, 50), SignedP90: series.Percentile(signed, 90),
					UnderFrac: float64(under) / fleet,
				})
			}
		}
	}
	return out, nil
}

// Render prints the decomposition.
func (r *TaperAblation) Render() string {
	var b strings.Builder
	b.WriteString("Ablation: taper x cut-off x window length on the serving shape (512 two-tone series, 1 Hz)\n\n")
	tb := report.NewTable("taper", "cut-off", "samples", "median |err|", "p90 |err|", "signed p10/p50/p90", "below truth")
	for _, row := range r.Rows {
		tb.AddRow(row.Taper, fmt.Sprintf("%.2f", row.Cutoff), fmt.Sprintf("%d", row.Samples),
			fmt.Sprintf("%.3f", row.MedianAbs), fmt.Sprintf("%.3f", row.P90Abs),
			fmt.Sprintf("%+.3f / %+.3f / %+.3f", row.SignedP10, row.SignedP50, row.SignedP90),
			fmt.Sprintf("%.1f%%", 100*row.UnderFrac))
	}
	b.WriteString(tb.String())
	return b.String()
}
