// --repeat K: the steadiness procedure the benchmark's bounds are set
// by. Two sets of K runs of the same build, seeds 1..K in both; for every
// workload × metric it prints each set's median and spread (the distance
// between the quartiles as a share of the median) and the gap between
// the set medians in the worse direction, beside the bound from
// BENCHMARK.json. A bound is to be at least twice the gap seen here and
// three times the spread; a metric whose gap exceeds layerListGap in
// either direction does not belong among the end-to-end metrics at all.
// The timings that were moved to the layer list for that reason are
// reported too, without a bound, so that the decision can be revisited
// on a steadier box. The metrics that are a pure function of the input
// must agree bit for bit between the two runs of one seed.

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// inputDetermined are the end-to-end metrics read at the checkpoint from
// state that depends on the seed alone.
var inputDetermined = []string{"stored_bytes_per_point", "estimate_rel_err_p50", "reconstruct_nrmse_p50"}

// layerListGap is the gap between two sets' medians of the same build
// beyond which a metric moves from the end-to-end list (where it carries
// a bound) to the per-layer list (where it carries none).
const layerListGap = 0.10

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// a spread printed here is the spread the benchmark's contract checks.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// declaredMetric is one metric of BENCHMARK.json; Bound is nil on the
// per-layer list.
type declaredMetric struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// resultFile is the part of bench/out/result-*.json the report needs.
type resultFile struct {
	Correct  bool               `json:"correct"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer"`
}

// repeat runs the procedure and returns the process exit code.
func repeat(k, seconds int, only string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	var decl struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &decl)
	}
	if err != nil {
		return fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	// The report covers the end-to-end list and the moved timings.
	report := append([]declaredMetric(nil), decl.EndToEnd...)
	for _, m := range decl.PerLayer {
		for _, t := range movedTimings {
			if m.Name == t.name {
				report = append(report, m)
			}
		}
	}

	// values[set][workload][metric][seed-1]
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			if only != "" && only != w.name {
				continue
			}
			values[set][w.name] = map[string][]float64{}
			for seed := 1; seed <= k; seed++ {
				cmd := exec.Command(self, "--workload", w.name,
					"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					return fail(fmt.Errorf("set %d %s seed %d: %w", set+1, w.name, seed, err))
				}
				var res resultFile
				raw, err := os.ReadFile(filepath.Join("bench", "out", resultName(w.name, uint64(seed), 0)))
				if err == nil {
					err = json.Unmarshal(raw, &res)
				}
				if err != nil || !res.Correct {
					return fail(fmt.Errorf("set %d %s seed %d: bad result file (%v)", set+1, w.name, seed, err))
				}
				for _, m := range report {
					v, ok := res.EndToEnd[m.Name]
					if !ok {
						v = res.PerLayer[m.Name]
					}
					values[set][w.name][m.Name] = append(values[set][w.name][m.Name], v)
				}
			}
		}
	}

	bad := 0
	fmt.Printf("%-14s %-26s %12s %8s %12s %8s %8s %6s  %s\n", "workload", "metric", "median1", "spread1", "median2", "spread2", "gap", "bound", "verdict")
	for _, w := range workloads {
		if values[0][w.name] == nil {
			continue
		}
		for _, m := range report {
			var med, spread [2]float64
			for set := range values {
				q1, q2, q3 := quartiles(values[set][w.name][m.Name])
				med[set], spread[set] = q2, (q3-q1)/q2
			}
			gap := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				gap = -gap
			}
			worst := max(spread[0], spread[1])
			verdict, bound := "ok", "-"
			switch {
			case m.Bound == nil:
				verdict = "layer list, no bound"
				if math.Abs(gap) <= layerListGap && worst <= 0.25/3 {
					verdict += "; steady enough here for the end-to-end list"
				}
			case gap > *m.Bound:
				verdict = "GAP OVER BOUND"
				bad++
			case m.Name != "setup_s" && worst > *m.Bound:
				verdict = "SPREAD OVER BOUND"
				bad++
			case math.Abs(gap) > layerListGap && m.Name != "setup_s":
				verdict = "ok, but gap over 0.10: move to the layer list"
			case m.Name != "setup_s" && worst > *m.Bound/3:
				verdict = "ok, spread over a third of the bound"
			}
			if m.Bound != nil {
				bound = strconv.FormatFloat(*m.Bound, 'f', 2, 64)
			}
			fmt.Printf("%-14s %-26s %12.6g %8.4f %12.6g %8.4f %8.4f %6s  %s\n",
				w.name, m.Name, med[0], spread[0], med[1], spread[1], gap, bound, verdict)
		}
		for _, name := range inputDetermined {
			a, b := values[0][w.name][name], values[1][w.name][name]
			for i := range a {
				if a[i] != b[i] {
					fmt.Printf("%-14s %-26s seed %d differs between the sets: %v vs %v\n", w.name, name, i+1, a[i], b[i])
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d metrics outside their bounds\n", bad)
		return 1
	}
	return 0
}
