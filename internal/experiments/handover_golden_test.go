package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dcsim"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// The archiver's estimate→retain differential: examples/archiver's two days
// of 30 s link-utilization polls (one-day blocks, into an unbounded and a
// 64-point store), then the production-cadence wire of every device of every
// benign dcsim regime (seed 46, 12 devices, 24 rounds of 64 polls) through
// its own archiver in 255-sample blocks, so each ends on a 6-sample block too
// short to estimate. The dump lists every retention handover (id and held
// rate as float bits, read from the store after each sample) and each
// archiver's raw, stored and raw-kept block counts. The file was written by
// commit febcc4b, before core.RatePolicy took the estimator's answer itself,
// and must repeat byte for byte. It uses only what that commit has, so the
// same file compiles there:
//
//	NYQ_GOLDEN_DIR=<dir> go test ./internal/experiments -run TestArchiverHandoverDifferential
//
// writes <dir>/archiver_handover.golden instead of comparing.
func TestArchiverHandoverDifferential(t *testing.T) {
	var sb strings.Builder
	run := func(a *Archiver, store *tsdb.DB, id string, pts []series.Point) {
		held := store.NyquistRate(id)
		note := func() {
			if r := store.NyquistRate(id); r != held {
				held = r
				fmt.Fprintf(&sb, "handover %s %016x\n", id, math.Float64bits(r))
			}
		}
		for _, p := range pts {
			if err := a.Ingest(p); err != nil {
				t.Fatal(err)
			}
			note()
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		note()
		raw, stored, kept := a.Savings()
		fmt.Fprintf(&sb, "archiver %s raw %d stored %d raw-kept %d\n", id, raw, stored, kept)
	}

	dev, err := dcsim.NewDevice("tor17/linkutil", dcsim.LinkUtil, 3e-4, 30*time.Second, rand.New(rand.NewSource(7)), 1717)
	if err != nil {
		t.Fatal(err)
	}
	trace := make([]series.Point, 2*2880)
	for i := range trace {
		trace[i] = series.Point{Time: start.Add(time.Duration(i) * 30 * time.Second), Value: dev.At(float64(i) * 30)}
	}
	fmt.Fprintf(&sb, "== examples/archiver\n")
	for _, store := range []*tsdb.DB{
		tsdb.New(tsdb.Config{}),
		tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: 64, TierCapacity: 32}}),
	} {
		a, err := NewArchiver(dev.ID, store, 30*time.Second, ArchiverConfig{WindowSamples: 2880, QuantStep: dev.Profile().QuantStep})
		if err != nil {
			t.Fatal(err)
		}
		run(a, store, dev.ID, trace)
	}

	for _, sp := range dcsim.Scenarios() {
		if sp.Hostile {
			continue
		}
		sc, err := dcsim.BuildScenario(sp.Name, 46, 12)
		if err != nil {
			t.Fatal(err)
		}
		wire := make([][]series.Point, len(sc.Fleet.Devices))
		gen := dcsim.NewWireGen(sc, dcsim.WireConfig{})
		for r := 0; r < 24; r++ {
			for _, ws := range gen.Round() {
				wire[ws.Device] = append(wire[ws.Device], series.Point{Time: ws.Time, Value: ws.Value})
			}
		}
		fmt.Fprintf(&sb, "== %s\n", sp.Name)
		store := tsdb.New(tsdb.Config{})
		for i, d := range sc.Fleet.Devices {
			a, err := NewArchiver(d.ID, store, d.PollInterval, ArchiverConfig{WindowSamples: 255})
			if err != nil {
				t.Fatal(err)
			}
			run(a, store, d.ID, wire[i])
		}
	}

	got := sb.String()
	if dir := os.Getenv("NYQ_GOLDEN_DIR"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "archiver_handover.golden"), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "archiver_handover.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("differs from the parent build's dump:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
