package fleet_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/fleet"
	"repro/nyquist"
)

var t0 = time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

func TestPublicFleetCensus(t *testing.T) {
	f, err := fleet.NewFleet(fleet.FleetConfig{Seed: 9, TotalPairs: 140})
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 140 {
		t.Fatalf("fleet size %d", f.Len())
	}
	var est nyquist.Estimator
	usable := 0
	for _, d := range f.Devices {
		u := d.Trace(t0, 0, fleet.Day)
		if res, err := est.Estimate(u); err == nil && !res.Aliased {
			usable++
		}
	}
	if usable < 100 {
		t.Fatalf("only %d/140 devices usable", usable)
	}
}

func TestPublicDeviceIsSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, err := fleet.NewDevice("x", fleet.Temperature, 1e-4, 5*time.Minute, rng, 11)
	if err != nil {
		t.Fatal(err)
	}
	// A fleet Device is a nyquist.Sampler: the detector can probe it.
	var _ nyquist.Sampler = d
	det := nyquist.NewDualRateDetector(nyquist.DualRateConfig{})
	v, _, err := det.Probe(d, 0, 86400, 1.0/300, 1.0/1100)
	if err != nil {
		t.Fatal(err)
	}
	if v.Aliased {
		t.Fatalf("300 s polls of a %v Hz device should not alias", d.TrueNyquist)
	}
}

func TestPublicPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, err := fleet.NewDevice("link0", fleet.LinkUtil, 3e-4, 30*time.Second, rng, 21)
	if err != nil {
		t.Fatal(err)
	}
	store := fleet.NewStore(0)
	trace := d.Trace(t0, 0, time.Hour)
	if err := store.AppendUniform(d.ID, trace); err != nil {
		t.Fatal(err)
	}
	var cost fleet.Cost
	cost.Add(fleet.DefaultCostModel(), trace.Len())
	if cost.Samples != 120 || store.Points() != 120 {
		t.Fatalf("cost %v, stored %d", cost, store.Points())
	}
}

func TestPublicExperimentDrivers(t *testing.T) {
	cfg := fleet.ExperimentConfig{Seed: 2, Pairs: 56}
	f1, err := fleet.RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f1.Render(), "Figure 1") {
		t.Fatal("fig1 render")
	}
	f2, err := fleet.RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f2.Render(), "Figure 2") {
		t.Fatal("fig2 render")
	}
	f6, err := fleet.RunFig6(fleet.Fig6Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f6.Fidelity == nil {
		t.Fatal("fig6 fidelity missing")
	}
}

func TestPublicMetricsEnumeration(t *testing.T) {
	ms := fleet.AllMetrics()
	if len(ms) != fleet.NumMetrics || fleet.NumMetrics != 14 {
		t.Fatalf("metrics = %d", len(ms))
	}
	p := fleet.ProfileFor(fleet.Temperature)
	if p.Name != "Temperature" || p.NyquistLo != 7.99e-7 {
		t.Fatalf("temperature profile = %+v", p)
	}
}
