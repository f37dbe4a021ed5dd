// Command nyquistscan audits monitoring traces: it reads timestamp,value
// CSV from a file or stdin, estimates the signal's Nyquist rate with the
// paper's method (§3.2), and reports how much the current collection rate
// could be reduced.
//
// Usage:
//
//	nyquistscan [-cutoff 0.99] [-welch] [-window 6h -step 5m] [file.csv]
//	nyquistscan -fleet 1000 [-workers 8]
//
// With -window the trace is additionally scanned with a sliding window:
// the samples are replayed through the streaming estimator, which keeps
// the newest window of samples in a ring and emits one Fig. 7-style line
// per step, from one FFT of the window over a shared plan.
//
// With -fleet the command audits a simulated datacenter instead of a
// trace, sharding the devices across the concurrent fleet scanner.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/fleet"
	"repro/internal/trace"
	"repro/nyquist"
)

func main() {
	var (
		cutoff    = flag.Float64("cutoff", nyquist.DefaultEnergyCutoff, "energy fraction cut-off")
		welch     = flag.Bool("welch", false, "use Welch averaging (noise-robust)")
		window    = flag.Duration("window", 0, "sliding-window length (0 = whole trace only)")
		step      = flag.Duration("step", 5*time.Minute, "sliding-window step")
		counter   = flag.Bool("counter", false, "treat the trace as a cumulative counter (difference into a rate first)")
		linear    = flag.Bool("lineardetrend", false, "remove a least-squares line instead of the mean (robust for short windows)")
		fleetSize = flag.Int("fleet", 0, "audit a simulated fleet of this many metric/device pairs instead of a trace")
		workers   = flag.Int("workers", 0, "fleet scan worker pool size (0 = GOMAXPROCS)")
		seed      = flag.Int64("seed", 7, "fleet generation seed")
	)
	flag.Parse()

	if *fleetSize > 0 {
		scanFleet(*fleetSize, *workers, *seed, *cutoff)
		return
	}

	var in io.Reader = os.Stdin
	name := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}
	s, err := trace.ReadCSV(in)
	if err != nil {
		fatal(err)
	}
	u, err := s.RegularizeAuto()
	if err != nil {
		fatal(fmt.Errorf("regularize: %w", err))
	}
	if *counter {
		u, err = fleet.RateFromCounter(u)
		if err != nil {
			fatal(fmt.Errorf("counter differencing: %w", err))
		}
		fmt.Println("counter mode: analyzing the differenced rate signal")
	}
	detrend := nyquist.DetrendMean
	if *linear {
		detrend = nyquist.DetrendLinear
	}
	est, err := nyquist.NewEstimator(nyquist.EstimatorConfig{EnergyCutoff: *cutoff, Welch: *welch, Detrend: detrend})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("trace: %s (%d samples, interval %v, rate %.4g Hz)\n",
		name, u.Len(), u.Interval, u.SampleRate())
	if gaps, err := s.Gaps(0); err == nil && len(gaps) > 0 {
		fmt.Printf("gaps: %d (largest %v) — filled by nearest-neighbour re-sampling\n",
			len(gaps), largestGap(gaps))
	}
	if q := nyquist.EstimateStep(u.Values); q > 0 {
		fmt.Printf("quantization step: %.4g\n", q)
	}

	res, err := est.Estimate(u)
	switch {
	case errors.Is(err, nyquist.ErrAliased):
		fmt.Println("verdict: ALIASED — the trace appears under-sampled; the Nyquist rate cannot be")
		fmt.Println("recovered from it (the paper records -1). Increase the collection rate and re-scan.")
	case err != nil:
		fatal(err)
	default:
		fmt.Printf("nyquist rate: %.4g Hz (cut-off frequency %.4g Hz, %.2f%% energy captured)\n",
			res.NyquistRate, res.CutoffFreq, 100*res.EnergyCaptured)
		fmt.Printf("possible reduction: %.1fx (sampling every %v would suffice)\n",
			res.ReductionRatio, rateToInterval(res.NyquistRate))
		if res.ReductionRatio < 1.2 {
			fmt.Println("note: the current rate is close to the requirement; keep it.")
		}
	}

	if *window > 0 {
		// The streaming engine reproduces the paper-default estimator
		// (plain FFT, mean detrend); variant configurations keep the
		// batch moving-window path so the flags stay honored.
		if *welch || *linear {
			if err := batchScan(est, u, *window, *step); err != nil {
				fatal(fmt.Errorf("moving window: %w", err))
			}
		} else if err := streamScan(u, *window, *step, *cutoff); err != nil {
			fatal(fmt.Errorf("sliding window: %w", err))
		}
	}
}

// batchScan runs the batch estimator over moving windows — the path for
// estimator variants (Welch, linear detrend) the streaming engine does
// not reproduce.
func batchScan(est *nyquist.Estimator, u *nyquist.Uniform, window, step time.Duration) error {
	wins, err := est.MovingWindow(u, window, step)
	if err != nil {
		return err
	}
	fmt.Printf("\nmoving-window scan (%v window, %v step):\n", window, step)
	for _, w := range wins {
		switch {
		case errors.Is(w.Err, nyquist.ErrAliased):
			fmt.Printf("  %s  aliased\n", w.WindowStart.Format(time.RFC3339))
		case w.Err != nil:
			fmt.Printf("  %s  error: %v\n", w.WindowStart.Format(time.RFC3339), w.Err)
		default:
			fmt.Printf("  %s  %.4g Hz\n", w.WindowStart.Format(time.RFC3339), w.Result.NyquistRate)
		}
	}
	return nil
}

// streamScan replays the trace through the streaming estimator, printing
// one line per emitted window — the incremental version of the Fig. 7
// moving-window scan.
func streamScan(u *nyquist.Uniform, window, step time.Duration, cutoff float64) error {
	winSamples := int(window / u.Interval)
	if winSamples < 2 {
		// Guard before StreamConfig, whose zero WindowSamples would
		// silently select the 1024-sample default.
		return nyquist.ErrTooShort
	}
	stepSamples := int(step / u.Interval)
	if stepSamples < 1 {
		stepSamples = 1
	}
	st, err := nyquist.NewStreamEstimator(nyquist.StreamConfig{
		Interval:      u.Interval,
		WindowSamples: winSamples,
		EmitEvery:     stepSamples,
		EnergyCutoff:  cutoff,
		Start:         u.Start,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nsliding-window scan (%v window, %v step, streaming):\n", window, step)
	var policy nyquist.RatePolicy
	n := 0
	for _, up := range st.Feed(u.Values) {
		n++
		// A stream's only error is the aliased verdict, which Feed takes.
		d, _ := policy.Feed(up.Result.NyquistRate, up.Err, winSamples/stepSamples)
		advice := d.PollInterval(u.Interval, up.Result.NyquistRate)
		if d.Aliased {
			fmt.Printf("  %s  aliased (streak %d) — poll every %v\n",
				up.WindowStart.Format(time.RFC3339), policy.AliasStreak(), advice)
		} else {
			fmt.Printf("  %s  %.4g Hz (sweet-spot poll every %v)\n",
				up.WindowStart.Format(time.RFC3339), up.Result.NyquistRate, roundInterval(advice))
		}
	}
	if n == 0 {
		return nyquist.ErrTooShort
	}
	return nil
}

// scanFleet audits a simulated datacenter with the concurrent scanner.
func scanFleet(pairs, workers int, seed int64, cutoff float64) {
	f, err := fleet.NewFleet(fleet.FleetConfig{Seed: seed, TotalPairs: pairs})
	if err != nil {
		fatal(err)
	}
	sc, err := fleet.NewScanner(fleet.ScanConfig{Workers: workers, EnergyCutoff: cutoff})
	if err != nil {
		fatal(err)
	}
	rep, err := sc.ScanAll(f)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Render())
}

func largestGap(gaps []nyquist.Gap) time.Duration {
	var max time.Duration
	for _, g := range gaps {
		if g.Length() > max {
			max = g.Length()
		}
	}
	return max
}

// roundInterval rounds for display without collapsing sub-second
// suggestions to "0s".
func roundInterval(d time.Duration) time.Duration {
	switch {
	case d >= 10*time.Second:
		return d.Round(time.Second)
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	default:
		return d.Round(time.Millisecond)
	}
}

func rateToInterval(rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return roundInterval(time.Duration(float64(time.Second) / rate))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nyquistscan:", err)
	os.Exit(1)
}
