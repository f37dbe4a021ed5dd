package fleet

import (
	"strings"
	"testing"
	"time"
)

func TestControllerConfigValidation(t *testing.T) {
	sc, err := BuildScenario("diurnal", 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(sc, ControllerConfig{Workers: -1}); err == nil {
		t.Error("negative worker count unexpectedly accepted")
	}
	if _, err := NewController(nil, ControllerConfig{}); err == nil {
		t.Error("nil scenario unexpectedly accepted")
	}
}

// The loop must close for every catalog regime: rates converge within the
// scenario's bound, and the converged fleet polls below the production
// rate except where probing is the honest answer.
func TestControllerConvergesOnEveryRegime(t *testing.T) {
	for _, sp := range Scenarios() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			sc, err := BuildScenario(sp.Name, 11, 48)
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := NewController(sc, ControllerConfig{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ctl.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ConvergedRound == 0 {
				t.Fatalf("%s: did not converge within %d rounds", sp.Name, sp.MaxRounds)
			}
			if rep.ConvergedRound > sp.MaxRounds {
				t.Fatalf("%s: converged at round %d, spec bounds it at %d", sp.Name, rep.ConvergedRound, sp.MaxRounds)
			}
			if rep.Quality.Devices == 0 {
				t.Fatalf("%s: reconstruction audit ran on no devices", sp.Name)
			}
			if rep.Quality.MeanErr > sp.QualityBar {
				t.Errorf("%s: mean reconstruction error %.3f above the regime's quality bar %.3f",
					sp.Name, rep.Quality.MeanErr, sp.QualityBar)
			}
		})
	}
}

// The estimate→retain leg: converged estimates must reach the store's
// per-series retention policy.
func TestControllerRetunesRetention(t *testing.T) {
	sc, err := BuildScenario("diurnal", 5, 32)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(sc, ControllerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Run(0); err != nil {
		t.Fatal(err)
	}
	store := ctl.store
	tuned := 0
	for _, d := range sc.Fleet.Devices {
		if store.NyquistRate(d.ID) > 0 {
			tuned++
		}
	}
	if tuned < len(sc.Fleet.Devices)/2 {
		t.Fatalf("only %d/%d series had their retention tuned by the loop", tuned, len(sc.Fleet.Devices))
	}
	// Every device's polls must have landed in the store.
	ids := store.IDs()
	if len(ids) != len(sc.Fleet.Devices) {
		t.Fatalf("store holds %d series, want %d", len(ids), len(sc.Fleet.Devices))
	}
}

// A budgeted run must keep the granted steady-state fleet rate within the
// budget (modulo the per-device liveness floor).
func TestControllerHonorsBudget(t *testing.T) {
	sc, err := BuildScenario("sweep", 9, 64)
	if err != nil {
		t.Fatal(err)
	}
	prod := 0.0
	for _, d := range sc.Fleet.Devices {
		prod += d.PollRate()
	}
	budget := prod / 8
	cfg := ControllerConfig{Workers: 4, BudgetHz: budget}
	ctl, err := NewController(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ctl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// minRate floors can push the sum above the allocation by at most
	// devices*minRate.
	slack := float64(len(sc.Fleet.Devices)) * minRate
	if rep.FinalHz > budget+slack {
		t.Fatalf("final fleet rate %.4g Hz exceeds budget %.4g Hz (+%.4g floor slack)", rep.FinalHz, budget, slack)
	}
	for _, round := range rep.Rounds {
		if round.Quality <= 0 || round.Quality > 1 {
			t.Fatalf("round %d: budget plan quality %.3f outside (0, 1]", round.Round, round.Quality)
		}
	}
}

// Reports must not depend on worker count or goroutine interleaving.
func TestControllerDeterministicAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) string {
		sc, err := BuildScenario("racks", 21, 48)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := NewController(sc, ControllerConfig{Workers: workers, InitialScan: true})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ctl.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render() + ctl.CensusReport().Render()
	}
	a, b, c := render(1), render(4), render(13)
	if a != b || b != c {
		t.Fatalf("report differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s\n--- workers=13\n%s", a, b, c)
	}
}

// The census must seed round-1 rates: a scanned start converges at least
// as fast as a blind start on the baseline regime.
func TestControllerInitialScanSeedsRates(t *testing.T) {
	run := func(scan bool) int {
		sc, err := BuildScenario("diurnal", 17, 48)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := NewController(sc, ControllerConfig{Workers: 4, InitialScan: scan})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ctl.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ConvergedRound == 0 {
			return 1 << 10
		}
		return rep.ConvergedRound
	}
	blind, seeded := run(false), run(true)
	if seeded > blind {
		t.Errorf("census-seeded run converged at round %d, blind at %d — the census should not slow the loop", seeded, blind)
	}
	// And the census itself must be reported.
	sc, _ := BuildScenario("diurnal", 17, 16)
	ctl, err := NewController(sc, ControllerConfig{Workers: 2, InitialScan: true})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.CensusReport() == nil || ctl.CensusReport().Pairs != 16 {
		t.Fatal("census report missing or incomplete after InitialScan")
	}
}

func TestControllerDeviceStatus(t *testing.T) {
	sc, err := BuildScenario("flatline", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(sc, ControllerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Run(0); err != nil {
		t.Fatal(err)
	}
	sts := ctl.Devices()
	if len(sts) != 16 {
		t.Fatalf("got %d device statuses, want 16", len(sts))
	}
	for _, st := range sts {
		if st.Cost.Samples == 0 {
			t.Errorf("%s: no samples billed", st.ID)
		}
		// Flatlined sensors must end at the liveness floor.
		if st.Rate > minRate+1e-12 {
			t.Errorf("%s: flatlined device still polling at %.4g Hz", st.ID, st.Rate)
		}
	}
}

// The acceptance bar: one process, one controller, >= 1000 devices, loop
// closed for every one of them within the scenario's round bound.
func TestControllerThousandDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-device run skipped in short mode")
	}
	sc, err := BuildScenario("sweep", 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	prod := 0.0
	for _, d := range sc.Fleet.Devices {
		prod += d.PollRate()
	}
	ctl, err := NewController(sc, ControllerConfig{
		BudgetHz:    prod * sc.Spec.BudgetFraction,
		InitialScan: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := ctl.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Devices != 1000 {
		t.Fatalf("report covers %d devices, want 1000", rep.Devices)
	}
	if rep.ConvergedRound == 0 {
		t.Fatalf("1000-device fleet did not converge within %d rounds:\n%s", sc.Spec.MaxRounds, rep.Render())
	}
	if rep.Store.Appends == 0 || rep.TotalCost.Samples == 0 {
		t.Fatal("scale run did not account storage or cost")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Errorf("1000-device run took %v — the loop must sustain fleet scale", elapsed)
	}
	if !strings.Contains(rep.Render(), "1000 devices") {
		t.Error("render does not mention the fleet size")
	}
}
