package nyquist_test

import (
	"fmt"
	"math"
	"time"

	"repro/nyquist"
)

// ExampleStreamEstimator demonstrates the streaming engine: polls arrive
// one at a time, the estimator keeps a sliding six-hour window, and each
// emission carries the current Nyquist rate, which a RatePolicy turns into
// the sweet-spot poll interval — no full-trace FFT, no unbounded
// buffering. The first window shares most of its samples with nothing
// trusted yet, so its advice holds the 1-minute poll.
func ExampleStreamEstimator() {
	st, _ := nyquist.NewStreamEstimator(nyquist.StreamConfig{
		Interval:      time.Minute,
		WindowSamples: 360, // six hours of 1-minute polls
		EmitEvery:     60,  // one update per hour
		Start:         time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC),
	})

	var policy nyquist.RatePolicy

	// Simulate half a day of 1-minute polls of a 12-cycles/day signal.
	for i := 0; i < 720; i++ {
		t := float64(i) * 60
		up := st.Push(50 + 5*math.Sin(2*math.Pi*12/86400*t))
		if up == nil {
			continue // warming up, or between emissions
		}
		d, _ := policy.Feed(up.Result.NyquistRate, up.Err, 360/60)
		fmt.Printf("%s  nyquist %.1f cycles/day  poll every %v\n",
			up.Time.Format("15:04"),
			up.Result.NyquistRate*86400,
			d.PollInterval(time.Minute, up.Result.NyquistRate).Round(time.Minute))
	}
	// Output:
	// 05:59  nyquist 24.0 cycles/day  poll every 1m0s
	// 06:59  nyquist 24.0 cycles/day  poll every 50m0s
	// 07:59  nyquist 24.0 cycles/day  poll every 50m0s
	// 08:59  nyquist 24.0 cycles/day  poll every 50m0s
	// 09:59  nyquist 24.0 cycles/day  poll every 50m0s
	// 10:59  nyquist 24.0 cycles/day  poll every 50m0s
	// 11:59  nyquist 24.0 cycles/day  poll every 50m0s
}
