package fleet

import (
	"sync"
	"testing"
	"time"
)

// The soak: every catalog regime, a budgeted closed loop, with readers
// hammering the store's query path while the controller's worker pool
// writes through it — the interleaving the race detector must see. The
// run must finish (no estimator/poller/store deadlocks), keep the fleet's
// steady-state cost within budget, and keep reconstruction error under
// the regime's quality bar.
func TestControllerSoakAllRegimes(t *testing.T) {
	devices := 256
	if testing.Short() {
		devices = 64
	}
	for _, sp := range Scenarios() {
		sp := sp
		if sp.Hostile {
			// Hostile regimes attack the ingest wire, not the control
			// loop; their soak lives in TestHostileSoakAllRegimes.
			continue
		}
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			sc, err := BuildScenario(sp.Name, 29, devices)
			if err != nil {
				t.Fatal(err)
			}
			prod := 0.0
			for _, d := range sc.Fleet.Devices {
				prod += d.PollRate()
			}
			budget := prod * sp.BudgetFraction
			ctl, err := NewController(sc, ControllerConfig{
				Workers:  4,
				BudgetHz: budget,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Concurrent readers: range queries and stats against the
			// store the controller is writing through, until the run
			// ends. Results are discarded; the point is the interleaving.
			done := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					store := ctl.Store()
					from := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)
					to := from.Add(365 * 24 * time.Hour)
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						d := sc.Fleet.Devices[(i*3+r)%len(sc.Fleet.Devices)]
						_, _ = store.Query(d.ID, from, to, 64)
						if i%16 == 0 {
							_ = store.Stats()
						}
					}
				}(r)
			}

			rep, runErr := ctl.Run(0)
			close(done)
			readers.Wait()
			if runErr != nil {
				t.Fatal(runErr)
			}

			if rep.ConvergedRound == 0 {
				t.Fatalf("%s: no convergence within %d rounds under budget %.4g Hz:\n%s",
					sp.Name, sp.MaxRounds, budget, rep.Render())
			}
			slack := float64(devices) * minRate
			if rep.FinalHz > budget+slack {
				t.Fatalf("%s: steady-state fleet rate %.4g Hz busts the %.4g Hz budget (+%.4g floor slack)",
					sp.Name, rep.FinalHz, budget, slack)
			}
			if rep.Quality.Devices == 0 {
				t.Fatalf("%s: reconstruction audit sampled no devices", sp.Name)
			}
			if rep.Quality.MeanErr > sp.QualityBar {
				t.Fatalf("%s: mean reconstruction error %.1f%% of swing above the regime's %.0f%% bar",
					sp.Name, 100*rep.Quality.MeanErr, 100*sp.QualityBar)
			}
		})
	}
}
