package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestBudgetFrontier(t *testing.T) {
	res, err := RunBudgetFrontier(smallFleet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs < 200 {
		t.Fatalf("usable pairs = %d", res.Pairs)
	}
	// Production must sit far right of the knee — that's the thesis.
	if res.TodayOverSpend < 5 {
		t.Fatalf("production overspend = %vx, want >> 1", res.TodayOverSpend)
	}
	// The curve must reach quality 1 at/after the knee.
	last := res.Points[len(res.Points)-1]
	if last.Quality < 1-1e-9 {
		t.Fatalf("final quality = %v", last.Quality)
	}
	first := res.Points[0]
	if first.Quality > 0.5 {
		t.Fatalf("starved budget quality = %v, want low", first.Quality)
	}
	if out := res.Render(); !strings.Contains(out, "sweet spot") || !strings.Contains(out, "knee") {
		t.Fatal("render incomplete")
	}
}

func TestErgodicityExperiment(t *testing.T) {
	res, err := RunErgodicity(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Homogeneous.Ergodic() {
		t.Fatalf("homogeneous fleet not ergodic: mean KS %v", res.Homogeneous.MeanKS)
	}
	if res.Mixed.Ergodic() {
		t.Fatalf("mixed fleet reported ergodic: mean KS %v", res.Mixed.MeanKS)
	}
	if res.CanarySamples <= 0 {
		t.Fatalf("canary horizon = %d, want positive", res.CanarySamples)
	}
	if res.OutlierCanarySamples != -1 {
		t.Fatalf("outlier canary horizon = %d, want -1", res.OutlierCanarySamples)
	}
	if out := res.Render(); !strings.Contains(out, "ergodic") {
		t.Fatal("render incomplete")
	}
}

func TestMemoryAblation(t *testing.T) {
	res, err := RunMemoryAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	memoryless, withMemory := res.Rows[0], res.Rows[1]
	if memoryless.Memory || !withMemory.Memory {
		t.Fatal("row order wrong")
	}
	if memoryless.Episodes < 3 {
		t.Fatalf("only %d recurrences observed", memoryless.Episodes)
	}
	// The §4.2 claim: memory misses fewer onsets. (It can still miss
	// the earliest recurrences — the floor is only armed once probing
	// has overlapped an episode at an adequate rate.)
	if withMemory.InadequateOnsets >= memoryless.InadequateOnsets {
		t.Fatalf("memory missed %d onsets vs %d memoryless — no benefit",
			withMemory.InadequateOnsets, memoryless.InadequateOnsets)
	}
	if withMemory.InadequateOnsets > 1 {
		t.Fatalf("memory missed %d onsets, want <= 1", withMemory.InadequateOnsets)
	}
	if out := res.Render(); !strings.Contains(out, "memory") {
		t.Fatal("render incomplete")
	}
}

func TestHeadroomAblation(t *testing.T) {
	res, err := RunHeadroomAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Cost must grow with headroom; capture must be monotone too, with
	// the largest headroom covering the 3x event and the smallest not.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].TotalSamples <= res.Rows[i-1].TotalSamples {
			t.Fatalf("cost not increasing with headroom: %+v", res.Rows)
		}
		if res.Rows[i-1].OnsetCaptured && !res.Rows[i].OnsetCaptured {
			t.Fatalf("capture not monotone in headroom: %+v", res.Rows)
		}
	}
	if res.Rows[0].OnsetCaptured {
		t.Fatalf("1x headroom should miss a 3x event onset (rate %v)", res.Rows[0].PreEventRate)
	}
	if !res.Rows[2].OnsetCaptured {
		t.Fatalf("4x headroom should capture a 3x event onset (rate %v)", res.Rows[2].PreEventRate)
	}
	if out := res.Render(); !strings.Contains(out, "headroom") {
		t.Fatal("render incomplete")
	}
}

func TestEstimatorAblation(t *testing.T) {
	res, err := RunEstimatorAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's method must be well calibrated on resolvable devices.
	paper := res.Rows[0]
	if paper.MedianRatio < 0.5 || paper.MedianRatio > 2 {
		t.Fatalf("paper variant median ratio = %v", paper.MedianRatio)
	}
	if paper.WithinFactor2 < 0.7 {
		t.Fatalf("paper variant within-2x = %v", paper.WithinFactor2)
	}
	for _, row := range res.Rows {
		if row.MedianRatio <= 0 {
			t.Fatalf("%s: degenerate ratio", row.Name)
		}
	}
	if out := res.Render(); !strings.Contains(out, "variant") {
		t.Fatal("render incomplete")
	}
}

func TestWindowAblation(t *testing.T) {
	res, err := RunWindowAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The floor halves per doubling; the >=1000x mass must not shrink as
	// the window grows.
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.FloorHz >= prev.FloorHz {
			t.Fatalf("floor did not drop: %v -> %v", prev.FloorHz, cur.FloorHz)
		}
		if cur.FracAbove1000+0.02 < prev.FracAbove1000 {
			t.Fatalf(">=1000x mass shrank with a longer window: %v -> %v",
				prev.FracAbove1000, cur.FracAbove1000)
		}
	}
	if out := res.Render(); !strings.Contains(out, "resolution floor") {
		t.Fatal("render incomplete")
	}
}

// TestTaperAblation pins the decomposition EXPERIMENTS.md tabulates at the
// serving window: what the rectangular window's 13 % is made of, and that
// the taper removes the under-estimates at the serving cut-off while the
// rectangular window stays the better one at 0.90.
func TestTaperAblation(t *testing.T) {
	res, err := RunTaperAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 2 tapers x 2 cut-offs x 4 lengths", len(res.Rows))
	}
	for _, want := range []struct {
		taper               string
		cutoff              float64
		median, p90, underP float64 // to three decimals, and percent to one
	}{
		{"rect", 0.99, 0.133, 0.969, 7.6},
		{"hann", 0.99, 0.045, 0.124, 0},
		{"rect", 0.90, 0.012, 0.044, 31.6},
		{"hann", 0.90, 0.019, 0.063, 12.7},
	} {
		found := false
		for _, row := range res.Rows {
			if row.Taper != want.taper || row.Cutoff != want.cutoff || row.Samples != 256 {
				continue
			}
			found = true
			if math.Abs(row.MedianAbs-want.median) > 5e-4 || math.Abs(row.P90Abs-want.p90) > 5e-4 || math.Abs(100*row.UnderFrac-want.underP) > 0.05 {
				t.Errorf("%s/%v at 256: median %.4f p90 %.4f under %.2f%%, want %.3f %.3f %.1f%%",
					want.taper, want.cutoff, row.MedianAbs, row.P90Abs, 100*row.UnderFrac, want.median, want.p90, want.underP)
			}
		}
		if !found {
			t.Errorf("no %s/%v row at 256 samples", want.taper, want.cutoff)
		}
	}
	if out := res.Render(); !strings.Contains(out, "below truth") {
		t.Fatal("render incomplete")
	}
}
