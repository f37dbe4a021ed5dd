package fleet

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/series"
)

// Differential property across the scenario catalog: on every regime's
// devices, the streaming estimator must agree with the batch estimator on
// the same window — same aliased verdict, same Nyquist rate to
// floating-point accuracy — under the rectangular window the census runs
// and the Hann taper the ingest hook serves. The regimes are exactly the
// signal shapes (drift, bursts, flat quantized exports, rack correlation,
// phase offsets) that could expose a divergence between the sliding
// spectral state and a fresh FFT.
func TestStreamMatchesBatchOnEveryRegime(t *testing.T) {
	for _, sp := range Scenarios() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			for _, win := range []struct {
				name string
				w    dsp.Window
			}{{"rect", nil}, {"hann", dsp.Hann{}}} {
				t.Run(win.name, func(t *testing.T) { streamMatchesBatchOnRegime(t, sp.Name, win.w) })
			}
		})
	}
}

func streamMatchesBatchOnRegime(t *testing.T, name string, w dsp.Window) {
	const window = 256
	f := func(seed int64) bool {
		sc, err := BuildScenario(name, seed, 12)
		if err != nil {
			t.Fatal(err)
		}
		// Three devices per draw, spread across the fleet.
		for _, di := range []int{0, 5, 11} {
			d := sc.Fleet.Devices[di]
			iv := d.PollInterval.Seconds()
			off := sc.PhaseOffset[di]

			st, err := core.NewStreamEstimator(core.StreamConfig{
				Interval:      d.PollInterval,
				WindowSamples: window,
				EmitEvery:     1 << 30,
				Window:        w,
			})
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]float64, window)
			for k := range vals {
				v := d.At(off + float64(k)*iv)
				vals[k] = v
				st.Push(v)
			}
			streamRes, streamErr := st.Current()

			batch, err := core.NewEstimator(core.EstimatorConfig{Window: w})
			if err != nil {
				t.Fatal(err)
			}
			u := &series.Uniform{Start: time.Unix(0, 0), Interval: d.PollInterval, Values: vals}
			batchRes, batchErr := batch.Estimate(u)

			if errors.Is(streamErr, core.ErrAliased) != errors.Is(batchErr, core.ErrAliased) {
				t.Logf("%s seed %d dev %s: aliased verdicts differ: stream %v vs batch %v",
					name, seed, d.ID, streamErr, batchErr)
				return false
			}
			if streamErr != nil && !errors.Is(streamErr, core.ErrAliased) {
				t.Fatalf("%s seed %d dev %s: stream: %v", name, seed, d.ID, streamErr)
			}
			if batchErr != nil && !errors.Is(batchErr, core.ErrAliased) {
				t.Fatalf("%s seed %d dev %s: batch: %v", name, seed, d.ID, batchErr)
			}
			if diff := math.Abs(streamRes.NyquistRate - batchRes.NyquistRate); diff > 1e-12*(1+batchRes.NyquistRate) {
				t.Logf("%s seed %d dev %s: Nyquist rates differ: stream %g vs batch %g",
					name, seed, d.ID, streamRes.NyquistRate, batchRes.NyquistRate)
				return false
			}
			if diff := math.Abs(streamRes.CutoffFreq - batchRes.CutoffFreq); diff > 1e-12*(1+batchRes.CutoffFreq) {
				t.Logf("%s seed %d dev %s: cut-offs differ: stream %g vs batch %g",
					name, seed, d.ID, streamRes.CutoffFreq, batchRes.CutoffFreq)
				return false
			}
		}
		return true
	}
	count := 6
	if testing.Short() {
		count = 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}
