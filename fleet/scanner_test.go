package fleet

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestScannerMatchesBatchEstimates cross-checks the scanner's streaming
// results against direct batch estimation of the same traces.
func TestScannerMatchesBatchEstimates(t *testing.T) {
	f, err := NewFleet(FleetConfig{Seed: 7, TotalPairs: 42})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(ScanConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)
	var batch core.Estimator
	checked := 0
	for r := range sc.Scan(f) {
		d := f.Devices[r.Index]
		if d.ID != r.ID {
			t.Fatalf("index %d: scanner ID %s, fleet ID %s", r.Index, r.ID, d.ID)
		}
		want, wantErr := batch.Estimate(d.Trace(start, 0, Day))
		if errors.Is(r.Err, core.ErrAliased) != errors.Is(wantErr, core.ErrAliased) {
			t.Fatalf("%s: scanner err %v, batch err %v", r.ID, r.Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if diff := math.Abs(r.Result.NyquistRate - want.NyquistRate); diff > 1e-6*(1+want.NyquistRate) {
			t.Fatalf("%s: scanner rate %g, batch rate %g", r.ID, r.Result.NyquistRate, want.NyquistRate)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no clean pairs cross-checked")
	}
}

// TestScannerDeterministicAcrossWorkerCounts scans a 1k-pair fleet with
// different pool sizes and requires bit-identical aggregate reports —
// the scheduling-independence contract.
func TestScannerDeterministicAcrossWorkerCounts(t *testing.T) {
	f, err := NewFleet(FleetConfig{Seed: 3, TotalPairs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var reports []*ScanReport
	for _, workers := range []int{1, 4, 16} {
		sc, err := NewScanner(ScanConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sc.ScanAll(f)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pairs != 1000 {
			t.Fatalf("workers=%d: %d pairs reported", workers, rep.Pairs)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("aggregate differs between worker counts:\n%s\nvs\n%s",
				reports[0].Render(), reports[i].Render())
		}
	}
	// The synthetic fleet plants ~11% under-sampled pairs; the census
	// must find a substantial aliased population and a big reduction.
	rep := reports[0]
	if rep.Aliased == 0 {
		t.Fatal("census found no aliased pairs in a fleet seeded with them")
	}
	if rep.PipelineReduction() < 2 {
		t.Fatalf("pipeline reduction %.1fx, want > 2x on an oversampled fleet", rep.PipelineReduction())
	}
}

// TestScannerStreamsEveryPair checks the channel delivers exactly one
// result per pair with indices covering the fleet.
func TestScannerStreamsEveryPair(t *testing.T) {
	f, err := NewFleet(FleetConfig{Seed: 5, TotalPairs: 100})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(ScanConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, f.Len())
	for r := range sc.Scan(f) {
		if r.Index < 0 || r.Index >= len(seen) {
			t.Fatalf("result index %d out of range", r.Index)
		}
		if seen[r.Index] {
			t.Fatalf("pair %d reported twice", r.Index)
		}
		seen[r.Index] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("pair %d never reported", i)
		}
	}
}

// TestScannerBoundedWindow checks the sliding-window cap still produces a
// usable census when devices have far more polls than the cap.
func TestScannerBoundedWindow(t *testing.T) {
	f, err := NewFleet(FleetConfig{Seed: 11, TotalPairs: 28})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(ScanConfig{Workers: 4, WindowSamples: 512})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.ScanAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 28 {
		t.Fatalf("%d pairs reported", rep.Pairs)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d pairs failed under the window cap", rep.Failed)
	}
}

// TestAggregateSurfacesFailures checks failed pairs are counted and
// called out in the rendered report instead of disappearing silently.
func TestAggregateSurfacesFailures(t *testing.T) {
	results := []DeviceResult{
		{Index: 0, ID: "a", Metric: Temperature, Samples: 100,
			Result: &core.Result{NyquistRate: 0.001, SampleRate: 0.01, ReductionRatio: 10}},
		{Index: 1, ID: "b", Metric: Temperature, Err: core.ErrTooShort},
	}
	rep := Aggregate(results, Day)
	if rep.Failed != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed)
	}
	if !strings.Contains(rep.Render(), "WARNING: 1 pairs failed") {
		t.Fatalf("render does not surface failures:\n%s", rep.Render())
	}
}

// TestScannerContextCancel checks an abandoned scan tears down: after
// cancellation the channel closes without delivering the whole fleet.
func TestScannerContextCancel(t *testing.T) {
	f, err := NewFleet(FleetConfig{Seed: 5, TotalPairs: 400})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(ScanConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := sc.ScanContext(ctx, f)
	got := 0
	for range ch {
		got++
		if got == 10 {
			cancel()
		}
	}
	// The channel must have closed (or the range above would hang); a
	// cancelled scan must not deliver the full fleet.
	if got >= f.Len() {
		t.Fatalf("cancelled scan still delivered all %d results", got)
	}
	cancel()
}

// TestScannerValidation exercises the config and input error paths.
func TestScannerValidation(t *testing.T) {
	if _, err := NewScanner(ScanConfig{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := NewScanner(ScanConfig{EnergyCutoff: 2}); err == nil {
		t.Fatal("bad cutoff accepted")
	}
	sc, err := NewScanner(ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ScanAll(nil); err == nil {
		t.Fatal("nil fleet accepted")
	}
	if _, err := sc.ScanAll(&Fleet{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	// Scan on an empty fleet must still close its channel.
	for range sc.Scan(&Fleet{}) {
		t.Fatal("empty fleet produced a result")
	}
}
