package fleet

import (
	"sync"
	"testing"
	"time"
)

// The hostile soak: every wire-hostile regime at a non-golden seed, with
// readers hammering the store's query path while the harness writes
// through it — the interleaving the race detector must see across the
// eviction, reprobe and strict-append paths. The run must finish, keep
// its quorum, and stay inside the capacity budget.
func TestHostileSoakAllRegimes(t *testing.T) {
	devices := 96
	if testing.Short() {
		devices = 24
	}
	for _, sp := range Scenarios() {
		sp := sp
		if !sp.Hostile {
			continue
		}
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			sc, err := BuildScenario(sp.Name, 29, devices)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewHostileRunner(sc, HostileConfig{})
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan struct{})
			var readers sync.WaitGroup
			for g := 0; g < 3; g++ {
				readers.Add(1)
				go func(g int) {
					defer readers.Done()
					store := r.Store()
					est := r.Estimator()
					from := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
					to := from.Add(365 * 24 * time.Hour)
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						d := sc.Fleet.Devices[(i*3+g)%len(sc.Fleet.Devices)]
						_, _ = store.Query(d.ID, from, to, 64)
						if i%16 == 0 {
							_ = store.Stats()
							_ = est.Len()
						}
					}
				}(g)
			}

			rep, runErr := r.Run()
			close(done)
			readers.Wait()
			if runErr != nil {
				t.Fatal(runErr)
			}
			if rep.ConvergedRound == 0 || !rep.FinalQuorumMet {
				t.Fatalf("%s: no converged quorum under reader load:\n%s", sp.Name, rep.Render())
			}
			if rep.LiveSeries > rep.MaxSeries {
				t.Fatalf("%s: %d live series above cap %d", sp.Name, rep.LiveSeries, rep.MaxSeries)
			}
		})
	}
}
