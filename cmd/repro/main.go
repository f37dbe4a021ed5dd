// Command repro regenerates the figures of "Towards a Cost vs. Quality
// Sweet Spot for Monitoring Networks" (HotNets 2021) from the synthetic
// fleet.
//
// Usage:
//
//	repro [-fig N | -all | -extras] [-seed S] [-pairs P]
//
// With -all (the default when no flag is given) every figure and extra
// experiment is run in order and printed to stdout. The output of a full
// run is what EXPERIMENTS.md records.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/fleet"
)

func main() {
	var (
		fig    = flag.Int("fig", 0, "figure to regenerate (1-7); 0 means -all")
		all    = flag.Bool("all", false, "run every figure and extra experiment")
		extras = flag.Bool("extras", false, "run only the §4.1/§4.2 and ablation experiments")
		seed   = flag.Int64("seed", 1, "fleet seed")
		pairs  = flag.Int("pairs", 1613, "metric/device pairs in the fleet (paper: 1613)")
		outDir = flag.String("out", "", "also write each figure's data as CSV into this directory")
	)
	flag.Parse()
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			os.Exit(1)
		}
	}

	cfg := fleet.ExperimentConfig{Seed: *seed, Pairs: *pairs}
	run := func(name string, f func() (renderer, error)) {
		fmt.Printf("==== %s ====\n\n", name)
		res, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		if *outDir != "" {
			if err := writeCSVArtifacts(*outDir, res); err != nil {
				fmt.Fprintf(os.Stderr, "repro: %s: csv: %v\n", name, err)
				os.Exit(1)
			}
		}
	}

	figs := map[int]func(){
		1: func() { run("Figure 1", func() (renderer, error) { return fleet.RunFig1(cfg) }) },
		2: func() { run("Figure 2", func() (renderer, error) { return fleet.RunFig2() }) },
		3: func() { run("Figure 3", func() (renderer, error) { return fleet.RunFig3() }) },
		4: func() { run("Figure 4", func() (renderer, error) { return fleet.RunFig4(cfg) }) },
		5: func() { run("Figure 5", func() (renderer, error) { return fleet.RunFig5(cfg) }) },
		6: func() {
			run("Figure 6", func() (renderer, error) { return fleet.RunFig6(fleet.Fig6Config{Seed: *seed}) })
		},
		7: func() {
			run("Figure 7", func() (renderer, error) { return fleet.RunFig7(fleet.Fig7Config{Seed: *seed}) })
		},
	}
	runExtras := func() {
		run("§4.1 dual-rate detection", func() (renderer, error) { return fleet.RunDualRate(*seed) })
		run("§4.2 adaptive vs static", func() (renderer, error) { return fleet.RunAdaptive(*seed) })
		run("Energy cut-off ablation", func() (renderer, error) { return fleet.RunCutoffAblation(*seed) })
		run("Window-length ablation", func() (renderer, error) { return fleet.RunWindowAblation(*seed) })
		run("§4.2 memory ablation", func() (renderer, error) { return fleet.RunMemoryAblation(*seed) })
		run("Estimator-variant ablation", func() (renderer, error) { return fleet.RunEstimatorAblation(*seed) })
		run("Serving-estimator taper ablation", func() (renderer, error) { return fleet.RunTaperAblation() })
		run("§4.2 headroom ablation", func() (renderer, error) { return fleet.RunHeadroomAblation(*seed) })
		run("Cost/quality sweet spot", func() (renderer, error) { return fleet.RunBudgetFrontier(cfg) })
		run("§6 ergodicity", func() (renderer, error) { return fleet.RunErgodicity(*seed) })
	}

	switch {
	case *fig != 0:
		f, ok := figs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "repro: no figure %d (want 1-7)\n", *fig)
			os.Exit(2)
		}
		f()
	case *extras && !*all:
		runExtras()
	default:
		for i := 1; i <= 7; i++ {
			figs[i]()
		}
		runExtras()
	}
}

// renderer is any experiment result that can print itself.
type renderer interface{ Render() string }

// writeCSVArtifacts emits machine-readable data files for the figure
// results that have natural tabular forms, so plots can be regenerated
// outside the terminal.
func writeCSVArtifacts(dir string, res renderer) error {
	switch r := res.(type) {
	case *fleet.Fig1Result:
		rows := []string{"metric,fraction_above_nyquist"}
		for i, m := range r.Metrics {
			rows = append(rows, csvRow(m, r.FractionAbove[i]))
		}
		return writeLines(filepath.Join(dir, "fig1_oversampling.csv"), rows)
	case *fleet.Fig4Result:
		rows := []string{"metric,reduction_ratio,cdf"}
		for i, m := range r.Metrics {
			for _, p := range r.CDFs[i].LogXPoints(60) {
				rows = append(rows, csvRow(m, p.X, p.Y))
			}
		}
		for _, p := range r.Pooled.LogXPoints(120) {
			rows = append(rows, csvRow("pooled", p.X, p.Y))
		}
		return writeLines(filepath.Join(dir, "fig4_reduction_cdfs.csv"), rows)
	case *fleet.Fig5Result:
		rows := []string{"metric,min,q1,median,q3,max"}
		for i, m := range r.Metrics {
			b := r.Boxes[i]
			rows = append(rows, csvRow(m, b.Min, b.Q1, b.Median, b.Q3, b.Max))
		}
		return writeLines(filepath.Join(dir, "fig5_nyquist_boxes.csv"), rows)
	case *fleet.Fig6Result:
		rows := []string{"index,original,reconstructed"}
		for i := range r.Original {
			rows = append(rows, csvRow(strconv.Itoa(i), r.Original[i], r.Reconstructed[i]))
		}
		return writeLines(filepath.Join(dir, "fig6_roundtrip.csv"), rows)
	case *fleet.Fig7Result:
		rows := []string{"window_start,nyquist_hz,aliased"}
		for _, p := range r.Points {
			rows = append(rows, csvRow(p.WindowStart.UTC().Format("2006-01-02T15:04:05Z"), p.NyquistRate, p.Aliased))
		}
		return writeLines(filepath.Join(dir, "fig7_moving_window.csv"), rows)
	case *fleet.BudgetFrontierResult:
		rows := []string{"budget_fraction,budget_hz,quality,lossless"}
		for _, p := range r.Points {
			rows = append(rows, csvRow(p.BudgetFraction, p.BudgetHz, p.Quality, p.Lossless))
		}
		return writeLines(filepath.Join(dir, "sweetspot_frontier.csv"), rows)
	default:
		return nil // no tabular form
	}
}

// csvRow renders values as one comma-separated line.
func csvRow(vals ...interface{}) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			parts[i] = x
		case float64:
			parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
		case int:
			parts[i] = strconv.Itoa(x)
		case bool:
			parts[i] = strconv.FormatBool(x)
		default:
			parts[i] = fmt.Sprint(x)
		}
	}
	return strings.Join(parts, ",")
}

func writeLines(path string, lines []string) error {
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
