package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dcsim"
	"repro/internal/dsp"
	"repro/internal/report"
)

// Fig6Config parameterizes the temperature round-trip experiment.
type Fig6Config struct {
	// Seed drives the synthetic temperature device.
	Seed int64
}

const (
	// fig6Duration is the trace length.
	fig6Duration = 2 * dcsim.Day
	// fig6Poll is the production rate: the paper's five minutes.
	fig6Poll = 5 * time.Minute
)

// Fig6Result is the data behind Figure 6: an actual (5-minute) temperature
// trace versus the version downsampled to its Nyquist rate and upsampled
// back, with the paper's headline "the L2 distance between these signals
// is 0".
type Fig6Result struct {
	// PollRate is the production sampling rate in hertz.
	PollRate float64
	// NyquistRate is the rate the estimator found for the trace.
	NyquistRate float64
	// AdaptiveRate is where the §4.2 adaptive loop converged.
	AdaptiveRate float64
	// Fidelity compares original and reconstruction (with quantization
	// recovery, §4.3).
	Fidelity *core.Fidelity
	// FidelityNoQuant is the same comparison without re-quantization.
	FidelityNoQuant *core.Fidelity
	// Original and Reconstructed are the two curves of the figure.
	Original, Reconstructed []float64
}

// RunFig6 reproduces Figure 6: downsample a temperature signal to its
// (adaptively inferred) Nyquist rate, upsample back, and measure the L2
// distance.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 600))
	// A temperature probe with a mid-range band limit so the 5-minute
	// production polls oversample it comfortably.
	dev, err := dcsim.NewDevice("temperature/fig6", dcsim.Temperature, 1e-4, fig6Poll, rng, uint64(cfg.Seed)+606)
	if err != nil {
		return nil, err
	}
	// A repeatable probe: readings are quantized (0.5 °C) but noise-free,
	// matching the production trace whose round trip the paper reports
	// as exactly L2 = 0. (With sensor noise above ~quantum/3, boundary
	// readings flip by one quantum and the distance is small but
	// nonzero; EXPERIMENTS.md quantifies that variant.)
	dev.SetNoiseAmp(0)
	u := dev.Trace(start, 0, fig6Duration)
	pollRate := 1 / fig6Poll.Seconds()

	var est core.Estimator
	eres, err := est.Estimate(u)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig6 estimate: %w", err)
	}

	// §4.2 dynamic adaptation over the same signal.
	sampler, err := core.NewAdaptiveSampler(core.AdaptiveConfig{
		InitialRate:   pollRate / 2,
		MaxRate:       pollRate,
		EpochDuration: (6 * time.Hour).Seconds(),
	})
	if err != nil {
		return nil, err
	}
	arun, err := sampler.Run(dev, 0, fig6Duration.Seconds())
	if err != nil {
		return nil, err
	}

	// Downsample to the inferred Nyquist rate (with a 10 % margin —
	// sampling *exactly at* the critical rate leaves the top component
	// ambiguous) and reconstruct, re-applying the sensor's 0.5 °C
	// quantum (§4.3).
	quant := dev.Profile().QuantStep
	target := 1.1 * eres.NyquistRate
	rec, fid, err := core.RoundTrip(u, target, core.ReconstructConfig{QuantStep: quant})
	if err != nil {
		return nil, err
	}
	_, fidNoQ, err := core.RoundTrip(u, target, core.ReconstructConfig{})
	if err != nil {
		return nil, err
	}
	return &Fig6Result{
		PollRate:        pollRate,
		NyquistRate:     eres.NyquistRate,
		AdaptiveRate:    arun.ConvergedRate(),
		Fidelity:        fid,
		FidelityNoQuant: fidNoQ,
		Original:        u.Values,
		Reconstructed:   rec.Values,
	}, nil
}

// Render prints the Fig. 6 comparison and an overlay plot.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: temperature signal, downsampled to the Nyquist rate and upsampled back\n\n")
	tb := report.NewTable("quantity", "value")
	tb.AddRow("production poll rate (Hz)", fmtHz(r.PollRate))
	tb.AddRow("estimated Nyquist rate (Hz)", fmtHz(r.NyquistRate))
	tb.AddRow("adaptive converged rate (Hz)", fmtHz(r.AdaptiveRate))
	tb.AddRow("samples kept", fmt.Sprintf("%d of %d (%.0fx reduction)",
		r.Fidelity.SamplesAfter, r.Fidelity.SamplesBefore, r.Fidelity.CostReduction()))
	tb.AddRow("L2 distance (requantized)", fmt.Sprintf("%.4g", r.Fidelity.L2))
	tb.AddRow("L2 distance (raw)", fmt.Sprintf("%.4g", r.FidelityNoQuant.L2))
	tb.AddRow("NRMSE (requantized)", fmt.Sprintf("%.5f", r.Fidelity.NRMSE))
	b.WriteString(tb.String())
	b.WriteString("\nPaper: the L2 distance between the signals is 0 (after quantization recovery).\n\n")
	pts := make([]report.Point, 0, len(r.Original)+len(r.Reconstructed))
	for i, v := range r.Original {
		pts = append(pts, report.Point{X: float64(i), Y: v})
	}
	b.WriteString(report.AsciiPlot{Width: 72, Height: 10, Title: "original (5-min polls)"}.Render(pts))
	pts = pts[:0]
	for i, v := range r.Reconstructed {
		pts = append(pts, report.Point{X: float64(i), Y: v})
	}
	b.WriteString(report.AsciiPlot{Width: 72, Height: 10, Title: "reconstructed from Nyquist-rate samples"}.Render(pts))
	return b.String()
}

// Fig7Config parameterizes the moving-window experiment.
type Fig7Config struct {
	// Seed drives the synthetic device.
	Seed int64
}

const (
	// fig7Window and fig7Step are the paper's moving analysis window and
	// its step.
	fig7Window, fig7Step = 6 * time.Hour, 5 * time.Minute
	// fig7Duration is the trace length.
	fig7Duration = 3 * dcsim.Day
)

// Fig7Point is one moving-window Nyquist estimate.
type Fig7Point struct {
	// WindowStart marks the beginning of the window (as in the paper).
	WindowStart time.Time
	// NyquistRate is the estimate (0 when the window was aliased).
	NyquistRate float64
	// Aliased marks unreliable windows.
	Aliased bool
}

// Fig7Result is the data behind Figure 7: the inferred Nyquist rate over
// time for a temperature signal whose behaviour shifts mid-trace.
type Fig7Result struct {
	// Points is the rate time-series (6 h window, 5 min step).
	Points []Fig7Point
	// ShiftAt is when the synthetic regime change happens.
	ShiftAt time.Time
	// PreMedian and PostMedian summarize the inferred rates before and
	// after the shift.
	PreMedian, PostMedian float64
	// Spectrogram is the STFT view of the same trace: the regime change
	// is visible as a band appearing mid-trace.
	Spectrogram *dsp.Spectrogram
}

// RunFig7 reproduces Figure 7: a 6-hour moving window stepped every 5
// minutes over a temperature trace, reporting the inferred Nyquist rate at
// each step. A mid-trace burst raises the local rate, demonstrating why
// adaptation must track time-varying Nyquist rates (§3.2, §4).
func RunFig7(cfg Fig7Config) (*Fig7Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 700))
	dev, err := dcsim.NewDevice("temperature/fig7", dcsim.Temperature, 5e-5, 30*time.Second, rng, uint64(cfg.Seed)+707)
	if err != nil {
		return nil, err
	}
	// Regime change at 1/3 of the trace: sustained faster thermal
	// oscillation (e.g. a failing fan cycling).
	shiftOffset := fig7Duration.Seconds() / 3
	dev.AddBurst(dcsim.Burst{
		Start:    shiftOffset,
		Duration: fig7Duration.Seconds() / 3,
		Freq:     1e-3,
		Amp:      8,
	})
	u := dev.Trace(start, 0, fig7Duration)
	var est core.Estimator
	wins, err := est.MovingWindow(u, fig7Window, fig7Step)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{ShiftAt: start.Add(time.Duration(shiftOffset * float64(time.Second)))}
	var pre, post []float64
	for _, w := range wins {
		p := Fig7Point{WindowStart: w.WindowStart}
		if w.Result != nil && !w.Result.Aliased {
			p.NyquistRate = w.Result.NyquistRate
		} else {
			p.Aliased = true
		}
		res.Points = append(res.Points, p)
		if p.NyquistRate > 0 {
			if w.WindowStart.Before(res.ShiftAt) {
				pre = append(pre, p.NyquistRate)
			} else {
				post = append(post, p.NyquistRate)
			}
		}
	}
	res.PreMedian = report.NewCDF(pre).Quantile(0.5)
	res.PostMedian = report.NewCDF(post).Quantile(0.5)
	if sg, err := (dsp.STFT{SegmentLen: 512}).Compute(detrendForSpectrogram(u.Values), u.SampleRate()); err == nil {
		res.Spectrogram = sg
	}
	return res, nil
}

// detrendForSpectrogram removes the mean so the DC column does not drown
// the heatmap's shading.
func detrendForSpectrogram(x []float64) []float64 {
	var m float64
	for _, v := range x {
		m += v
	}
	m /= float64(len(x))
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v - m
	}
	return out
}

// Render prints the Fig. 7 rate-over-time curve.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: inferred Nyquist rate over time (6 h moving window, 5 min step)\n\n")
	pts := make([]report.Point, 0, len(r.Points))
	for _, p := range r.Points {
		if p.NyquistRate > 0 {
			pts = append(pts, report.Point{
				X: p.WindowStart.Sub(r.Points[0].WindowStart).Hours(),
				Y: p.NyquistRate,
			})
		}
	}
	b.WriteString(report.AsciiPlot{Width: 72, Height: 12, Title: "Nyquist rate (Hz) vs window start (hours)"}.Render(pts))
	fmt.Fprintf(&b, "\nMedian inferred rate before regime change: %s Hz; after: %s Hz (shift at t=%.0f h)\n",
		fmtHz(r.PreMedian), fmtHz(r.PostMedian), r.ShiftAt.Sub(r.Points[0].WindowStart).Hours())
	b.WriteString("Paper: the inferred rate varies over time on the same device, motivating dynamic adaptation.\n")
	if r.Spectrogram != nil {
		b.WriteByte('\n')
		b.WriteString(report.Heatmap{Title: "Spectrogram of the trace (regime change visible as a new band)", Log: true}.Render(r.Spectrogram.Power))
	}
	return b.String()
}
