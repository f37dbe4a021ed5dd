package monitor

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/series"
)

// TestArchiverAdviceMatchesBatch checks the archiver's live estimate —
// the view the incremental spectral state affords between flushes —
// agrees with batch estimation of the same trailing window, including
// windows spanning a block boundary.
func TestArchiverAdviceMatchesBatch(t *testing.T) {
	const w = 256
	store := newStore(0)
	a, err := NewArchiver("sig", store, time.Second, ArchiverConfig{WindowSamples: w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Advice(); !errors.Is(err, core.ErrTooShort) {
		t.Fatalf("advice before a full window: %v, want ErrTooShort", err)
	}
	sig := func(i int) float64 { return 40 + 5*math.Sin(2*math.Pi*8*float64(i)/w) }
	var ingested []float64
	ingest := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			i := len(ingested)
			ingested = append(ingested, sig(i))
			if err := a.Ingest(series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: sig(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	adviceMatchesTrailing := func() {
		t.Helper()
		res, err := a.Advice()
		if err != nil {
			t.Fatalf("advice: %v", err)
		}
		u := &series.Uniform{Start: start, Interval: time.Second, Values: ingested[len(ingested)-w:]}
		var batch core.Estimator
		want, err := batch.Estimate(u)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		if math.Abs(res.NyquistRate-want.NyquistRate) > 1e-6*(1+want.NyquistRate) {
			t.Fatalf("advice rate %g, batch %g", res.NyquistRate, want.NyquistRate)
		}
	}

	ingest(w - 1)
	if _, err := a.Advice(); !errors.Is(err, core.ErrTooShort) {
		t.Fatalf("advice one sample short: %v, want ErrTooShort", err)
	}
	// Window fill triggers the first flush; advice stays live on the
	// trailing window.
	ingest(1)
	adviceMatchesTrailing()
	// Mid-second-block: the trailing window spans the block boundary.
	ingest(100)
	adviceMatchesTrailing()
	// A partial manual flush breaks window alignment: advice warms anew.
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Advice(); !errors.Is(err, core.ErrTooShort) {
		t.Fatalf("advice after partial flush: %v, want ErrTooShort", err)
	}
	ingest(w)
	adviceMatchesTrailing()
}

// TestArchiverStreamingMatchesBatchBlocks runs two archivers — one with
// the paper-default (streaming) configuration, one forced down the batch
// path with a Hann window — over the same signal and checks the streaming
// one reproduces the batch savings of its own defaults.
func TestArchiverStreamingMatchesBatchBlocks(t *testing.T) {
	type outcome struct{ raw, stored, aliased int }
	run := func(cfg ArchiverConfig) outcome {
		store := newStore(0)
		a, err := NewArchiver("sig", store, time.Second, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4096; i++ {
			v := 40 + 5*math.Sin(2*math.Pi*16*float64(i)/1024)
			if err := a.Ingest(series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: v}); err != nil {
				t.Fatal(err)
			}
		}
		var o outcome
		o.raw, o.stored, o.aliased = a.Savings()
		return o
	}
	streaming := run(ArchiverConfig{WindowSamples: 1024})
	if streaming.aliased != 0 {
		t.Fatalf("streaming archiver flagged %d aliased blocks", streaming.aliased)
	}
	if streaming.stored >= streaming.raw/10 {
		t.Fatalf("streaming archiver stored %d of %d; expected heavy compression", streaming.stored, streaming.raw)
	}
}

// TestArchiverStreamFallbacks checks configurations the streaming engine
// cannot reproduce keep their pre-streaming behavior: tiny windows still
// construct (blocks flush raw via ErrTooShort), and MinSamples above the
// block size still forces raw storage instead of a stream estimate.
func TestArchiverStreamFallbacks(t *testing.T) {
	// Tiny window: constructor must succeed, blocks stored raw.
	a, err := NewArchiver("tiny", newStore(0), time.Second, ArchiverConfig{WindowSamples: 8})
	if err != nil {
		t.Fatalf("tiny window: %v", err)
	}
	for i := 0; i < 16; i++ {
		if err := a.Ingest(series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	raw, stored, aliasedBlocks := a.Savings()
	if raw != 16 || stored != 16 || aliasedBlocks != 2 {
		t.Fatalf("tiny window: raw=%d stored=%d aliased=%d, want 16/16/2 (raw storage)", raw, stored, aliasedBlocks)
	}

	// MinSamples above the block size: blocks are "too short" by
	// configuration and must flush raw, not via the stream.
	b, err := NewArchiver("minsamples", newStore(0), time.Second, ArchiverConfig{
		WindowSamples: 64,
		Estimator:     core.EstimatorConfig{MinSamples: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		v := 40 + math.Sin(2*math.Pi*4*float64(i)/64)
		if err := b.Ingest(series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	raw, stored, aliasedBlocks = b.Savings()
	if raw != 64 || stored != 64 || aliasedBlocks != 1 {
		t.Fatalf("minsamples: raw=%d stored=%d aliased=%d, want 64/64/1 (raw storage)", raw, stored, aliasedBlocks)
	}
}

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
