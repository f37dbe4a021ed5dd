package repro

// One benchmark per figure of the paper's evaluation, plus the §4.1/§4.2
// mechanism benches and the ablations DESIGN.md calls out. Each bench
// regenerates the figure's data end to end (fleet synthesis, trace
// collection, estimation, rendering-ready aggregates) and reports custom
// metrics so the run doubles as a results table:
//
//	go test -bench=. -benchmem
//
// Fleet-census benches use a 280-pair fleet per iteration (1/6 of the
// paper's 1613) to keep iterations short; cmd/repro runs the full size.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/fleet"
	"repro/internal/dsp"
	"repro/nyquist"
)

var benchCfg = fleet.ExperimentConfig{Seed: 1, Pairs: 280}

// BenchmarkFig1OversamplingCensus regenerates Figure 1: the per-metric
// fraction of devices polled above their Nyquist rate.
func BenchmarkFig1OversamplingCensus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunFig1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Census.OversampledFraction(), "%oversampled")
	}
}

// BenchmarkFig2AliasSpectra regenerates Figure 2: alias image geometry for
// a single tone sampled above and below its Nyquist rate.
func BenchmarkFig2AliasSpectra(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BelowPeak, "aliasHz")
	}
}

// BenchmarkFig3TwoToneAliasing regenerates Figure 3: the 400+440 Hz tone
// sampled at 890/800/600 Hz with reconstructions.
func BenchmarkFig3TwoToneAliasing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunFig3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Variants[2].Fidelity.NRMSE, "worstNRMSE")
	}
}

// BenchmarkFig4ReductionRatioCDFs regenerates Figure 4: per-metric CDFs of
// the possible sampling-rate reduction.
func BenchmarkFig4ReductionRatioCDFs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunFig4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.FracAbove1000, "%ge1000x")
		b.ReportMetric(res.Pooled.Quantile(0.5), "medianReduction")
	}
}

// BenchmarkFig5NyquistBoxplot regenerates Figure 5: the box plot of
// Nyquist rates per metric family.
func BenchmarkFig5NyquistBoxplot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunFig5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TemperatureRange[1], "tempMaxHz")
	}
}

// BenchmarkFig6TemperatureRoundTrip regenerates Figure 6: the temperature
// signal downsampled to its Nyquist rate and reconstructed.
func BenchmarkFig6TemperatureRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunFig6(fleet.Fig6Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fidelity.L2, "L2")
		b.ReportMetric(res.Fidelity.CostReduction(), "reduction")
	}
}

// BenchmarkFig7MovingWindowNyquist regenerates Figure 7: the 6-hour
// moving-window Nyquist scan with a mid-trace regime change.
func BenchmarkFig7MovingWindowNyquist(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunFig7(fleet.Fig7Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PostMedian/res.PreMedian, "rateJump")
	}
}

// BenchmarkDualRateAliasDetection exercises the §4.1 detector sweep.
func BenchmarkDualRateAliasDetection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunDualRate(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Correct), "correctVerdicts")
	}
}

// BenchmarkAdaptiveSampler exercises the §4.2 probe/converge/decay loop
// against static polling on a day with a link flap.
func BenchmarkAdaptiveSampler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunAdaptive(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Comparison.CostReduction, "costReduction")
	}
}

// BenchmarkAblationEnergyCutoff sweeps the 90/99/99.99% energy cut-off
// (DESIGN.md choice 1).
func BenchmarkAblationEnergyCutoff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.RunCutoffAblation(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweetSpotFrontier traces the fleet-wide cost/quality curve of
// the paper's title: audit, aggregate demand, budget sweep.
func BenchmarkSweetSpotFrontier(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunBudgetFrontier(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TodayOverSpend, "overspendX")
	}
}

// BenchmarkErgodicity measures the §6 fleet-ergodicity exploration.
func BenchmarkErgodicity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunErgodicity(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Homogeneous.MeanKS, "meanKS")
	}
}

// BenchmarkAblationWindowLength sweeps the analysis window (1/2/4 days),
// the resolution-floor ablation of EXPERIMENTS.md.
func BenchmarkAblationWindowLength(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunWindowAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Rows[len(res.Rows)-1].FracAbove1000, "%ge1000x@4d")
	}
}

// BenchmarkAblationMemory compares the §4.2 adaptive loop with and
// without requirement memory on recurring fast episodes.
func BenchmarkAblationMemory(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunMemoryAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[1].InadequateOnsets), "missedWithMemory")
		b.ReportMetric(float64(res.Rows[0].InadequateOnsets), "missedMemoryless")
	}
}

// BenchmarkAblationHeadroom sweeps §4.2's headroom factor against a
// first-of-its-kind event (capture vs standing cost).
func BenchmarkAblationHeadroom(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunHeadroomAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		captured := 0.0
		for _, row := range res.Rows {
			if row.OnsetCaptured {
				captured++
			}
		}
		b.ReportMetric(captured, "onsetsCaptured")
	}
}

// BenchmarkAblationEstimatorVariants scores estimator variants (plain /
// linear detrend / Hann / Welch) against ground truth.
func BenchmarkAblationEstimatorVariants(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fleet.RunEstimatorAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MedianRatio, "paperMedianRatio")
	}
}

// BenchmarkAblationInterpolation compares the pre-cleaning interpolation
// policies of §3.2 (DESIGN.md choice 4) on a jittered trace.
func BenchmarkAblationInterpolation(b *testing.B) {
	start := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)
	s := nyquist.NewSeries(nil)
	for i := 0; i < 2880; i++ {
		jitter := time.Duration(i%17) * 300 * time.Millisecond
		ts := start.Add(time.Duration(i)*30*time.Second + jitter)
		s.AppendValue(ts, 50+10*float64(i%120)/120)
	}
	for _, ip := range []nyquist.Interpolation{nyquist.NearestNeighbor, nyquist.Linear, nyquist.PreviousValue} {
		b.Run(ip.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Regularize(30*time.Second, ip); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamVsBatchRefresh measures what one consumed estimate
// costs on the two traffic shapes this tree runs: "serving" is nyquistd's
// default — a 256-sample window refreshed every 8 points (one op = 8
// pushes and the emission they trigger) — and "census" is the
// scanner/controller/archiver shape — fill a 1024-sample window, read it
// once (one op = 1024 pushes and one Current). Both feed unrounded
// floats, which the stream holds as float64 samples; the "two-decimal"
// serving row feeds the same signal rounded to hundredths, as parsed
// telemetry arrives, which the stream holds as 16-bit decimal offsets and
// decodes at every refresh; the "counter" row feeds a byte counter far
// from zero climbing 47 a sample, which the stream holds as 16-bit
// offsets from its first sample for about 700 pushes and as 32-bit ones
// from there on, decoded without a division. The batch rows run the batch
// Estimator over the same window at the same cadence: the same transform,
// plus the copy and allocations the stream's shared plan and pooled
// scratch avoid.
func BenchmarkStreamVsBatchRefresh(b *testing.B) {
	start := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)
	const interval = 30 * time.Second
	floats, decimals := make([]float64, 4096), make([]float64, 4096)
	for i := range floats {
		ts := float64(i) * interval.Seconds()
		floats[i] = 50 + 5*math.Sin(2*math.Pi*12/86400*ts) + 2*math.Sin(2*math.Pi*40/86400*ts)
		decimals[i] = math.Round(floats[i]*100) / 100
	}
	cycle := func(vals []float64) func(int) float64 { return func(k int) float64 { return vals[k%len(vals)] } }
	counter := func(k int) float64 { return 7_340_032_000 + 47*float64(k) + math.Round(floats[k%len(floats)]) }
	for _, shape := range []struct {
		name                   string
		window, hop, emitEvery int // one op pushes hop samples
		taper                  nyquist.Window
		at                     func(k int) float64 // the stream's sample k
	}{
		{"serving-256-every-8", 256, 8, 8, dsp.Hann{}, cycle(floats)}, // the ingest hook's window
		{"serving-256-every-8-two-decimal", 256, 8, 8, dsp.Hann{}, cycle(decimals)},
		{"serving-256-every-8-counter", 256, 8, 8, dsp.Hann{}, counter},
		{"census-1024-once", 1024, 1024, 1 << 30, nil, cycle(floats)},
	} {
		vals := make([]float64, len(floats))
		for k := range vals {
			vals[k] = shape.at(k)
		}
		b.Run("batch/"+shape.name, func(b *testing.B) {
			est, err := nyquist.NewEstimator(nyquist.EstimatorConfig{Window: shape.taper})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := (i * shape.hop) % (len(vals) - shape.window)
				u, err := nyquist.NewUniform(start, interval, vals[lo:lo+shape.window])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := est.Estimate(u); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("stream/"+shape.name, func(b *testing.B) {
			st, err := nyquist.NewStreamEstimator(nyquist.StreamConfig{
				Interval:      interval,
				WindowSamples: shape.window,
				EmitEvery:     shape.emitEvery,
				Window:        shape.taper,
			})
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < shape.window; k++ {
				st.Push(shape.at(k))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var up *nyquist.StreamUpdate
				for j := 0; j < shape.hop; j++ {
					up = st.Push(shape.at(shape.window + i*shape.hop + j))
				}
				// The serving shape consumes the emission its last push
				// triggered; the census shape never emits after the first
				// fill and reads the window itself.
				if up != nil {
					err = up.Err
				} else {
					_, err = st.Current()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetScanner measures the concurrent fleet census across pool
// sizes: throughput should scale with workers up to GOMAXPROCS.
func BenchmarkFleetScanner(b *testing.B) {
	f, err := fleet.NewFleet(fleet.FleetConfig{Seed: 7, TotalPairs: 140})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sc, err := fleet.NewScanner(fleet.ScanConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := sc.ScanAll(f)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Pairs), "pairs")
			}
		})
	}
}

// BenchmarkEstimateDayTrace measures the core estimator on a single
// day-long 30-second trace — the unit of work every census repeats.
func BenchmarkEstimateDayTrace(b *testing.B) {
	f, err := fleet.NewFleet(fleet.FleetConfig{Seed: 3, TotalPairs: 14})
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)
	u := f.Devices[0].Trace(start, 0, fleet.Day)
	var est nyquist.Estimator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(u); err != nil && err != nyquist.ErrAliased {
			b.Fatal(err)
		}
	}
}
