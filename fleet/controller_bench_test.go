package fleet

import (
	"fmt"
	"testing"
)

// BenchmarkControllerRound measures closed-loop control throughput: one
// op is one full control round — poll every device for a window, stream
// the polls through per-device estimators, allocate the budget, retune
// retention. The custom metrics put it in operator units: devices and
// samples driven per second of wall clock (scripts/gobench.sh runs it).
func BenchmarkControllerRound(b *testing.B) {
	for _, devices := range []int{64, 256, 1000} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			sc, err := BuildScenario("diurnal", 31, devices)
			if err != nil {
				b.Fatal(err)
			}
			prod := 0.0
			for _, d := range sc.Fleet.Devices {
				prod += d.PollRate()
			}
			ctl, err := NewController(sc, ControllerConfig{BudgetHz: prod})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctl.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			samples := float64(devices * samplesPerRound)
			b.ReportMetric(float64(devices)*float64(b.N)/b.Elapsed().Seconds(), "devices/s")
			b.ReportMetric(samples*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
