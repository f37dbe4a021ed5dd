package monitor

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

// TestStaticPollerFeedsStream checks the production poll loop feeds the
// riding estimator, which then knows the metric's actual requirement.
func TestStaticPollerFeedsStream(t *testing.T) {
	st, err := core.NewStreamEstimator(core.StreamConfig{
		Interval:      time.Second,
		WindowSamples: 512,
		EmitEvery:     1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1/64 Hz sine sampled at 1 Hz: Nyquist rate 1/32 Hz, 32x oversampled.
	target := core.SamplerFunc(func(ts float64) float64 {
		return 20 + math.Sin(2*math.Pi*ts/64)
	})
	p := &StaticPoller{ID: "s", Target: target, Interval: time.Second, Stream: st}
	if _, err := p.Run(nil, start, 0, 1024*time.Second); err != nil {
		t.Fatal(err)
	}
	if st.Seen() != 1024 {
		t.Fatalf("stream saw %d polls, want 1024", st.Seen())
	}
	res, err := st.Current()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ReductionRatio-32) > 2 {
		t.Fatalf("riding estimator found %.1fx reduction, want ~32x", res.ReductionRatio)
	}
}

// TestStaticPollerStreamRetunesRetention checks the riding estimator's
// emissions reach the store's retention policy while the production rate
// keeps collecting.
func TestStaticPollerStreamRetunesRetention(t *testing.T) {
	st, err := core.NewStreamEstimator(core.StreamConfig{
		Interval:      time.Second,
		WindowSamples: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	target := core.SamplerFunc(func(ts float64) float64 {
		return 20 + math.Sin(2*math.Pi*ts/64)
	})
	s := newStore(128)
	p := &StaticPoller{ID: "s", Target: target, Interval: time.Second, Stream: st}
	if _, err := p.Run(s, start, 0, 1024*time.Second); err != nil {
		t.Fatal(err)
	}
	rate := s.NyquistRate("s")
	if rate <= 0 {
		t.Fatal("store retention never learned from the riding stream")
	}
	// 1/64 Hz tone → Nyquist rate 1/32 Hz.
	if want := 1.0 / 32; rate < want/2 || rate > 4*want {
		t.Fatalf("retained rate %g Hz, want near %g", rate, want)
	}
}
