package monitor

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dcsim"
	"repro/internal/series"
)

// The hook's estimate→retain differential: the wire traffic of every benign
// dcsim regime (seed 46, 12 devices, 24 rounds of 64 polls a device) goes
// through Observe under the default config and under a 64-sample window
// refreshed every 4 points, and the dump lists every retention handover
// (id and held rate as float bits, in the order the store saw them), each
// series' final clean run, held rate, counted lower refreshes and newest
// trusted estimate, and the three refresh counters. The file was written
// by commit febcc4b, before core.RatePolicy took the estimator's answer
// itself, and must repeat byte for byte. It uses only what that commit
// has, so the same file compiles there:
//
//	NYQ_GOLDEN_DIR=<dir> go test ./internal/monitor -run TestHandoverDifferential
//
// writes <dir>/handover_differential.golden instead of comparing.
func TestHandoverDifferential(t *testing.T) {
	var sb strings.Builder
	for _, cfg := range []IngestConfig{{}, {WindowSamples: 64, EmitEvery: 4}} {
		for _, sp := range dcsim.Scenarios() {
			if sp.Hostile {
				continue
			}
			sc, err := dcsim.BuildScenario(sp.Name, 46, 12)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingTuner{}
			e := NewIngestEstimator(nil, cfg)
			e.store = rec
			gen := dcsim.NewWireGen(sc, dcsim.WireConfig{})
			for r := 0; r < 24; r++ {
				for _, ws := range gen.Round() {
					e.Observe(ws.ID, series.Point{Time: ws.Time, Value: ws.Value})
				}
			}
			fmt.Fprintf(&sb, "== %s window %d emit %d\n", sp.Name, e.cfg.WindowSamples, e.cfg.EmitEvery)
			for i, rate := range rec.calls {
				fmt.Fprintf(&sb, "handover %s %016x\n", rec.ids[i], math.Float64bits(rate))
			}
			for _, st := range e.ExportState() {
				adv, _ := e.Advice(st.Series)
				fmt.Fprintf(&sb, "series %s clean %d held %016x below %d nyquist %016x\n",
					st.Series, st.CleanStreak, math.Float64bits(st.HeldRate), adv.HeldRefreshes, math.Float64bits(st.NyquistRate))
			}
			fmt.Fprintf(&sb, "retunes %d held %d aliased %d\n", e.Retunes(), e.HeldRefreshes(), e.AliasedRefreshes())
		}
	}
	got := sb.String()
	if dir := os.Getenv("NYQ_GOLDEN_DIR"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "handover_differential.golden"), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "handover_differential.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("differs from the parent build's dump at line %d:\n got %q\nwant %q", i+1, gl[i], append(wl, "")[min(i, len(wl))])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("dump has %d lines, the parent build's %d", len(gl), len(wl))
	}
}
