// Archiver: the paper's a-posteriori path (§4, first paragraph).
//
// Sometimes the measurement itself is cheap — the switch exports the
// counter anyway — and the real costs are storage and downstream
// analysis. Then nothing needs to change at the device: keep polling
// fast, but before writing to the TSDB, compute each window's Nyquist
// rate and store only the window re-sampled at that rate. Readers
// reconstruct on demand.
//
// This example streams two days of 30-second link-utilization polls
// through the archiver, shows the storage bill shrinking, and reads the
// series back to verify nothing an operator could query was lost.
//
// Run with: go run ./examples/archiver
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/fleet"
	"repro/nyquist"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	dev, err := fleet.NewDevice("tor17/linkutil", fleet.LinkUtil, 3e-4, 30*time.Second, rng, 1717)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Date(2021, 11, 10, 0, 0, 0, 0, time.UTC)

	// The fast path: poll every 30 s into the archiver instead of
	// straight into the store.
	archive := fleet.NewStore(0)
	arch, err := fleet.NewArchiver(dev.ID, archive, 30*time.Second, fleet.ArchiverConfig{
		WindowSamples: 2880, // analyze one day at a time
		QuantStep:     dev.Profile().QuantStep,
	})
	if err != nil {
		log.Fatal(err)
	}
	const days = 2
	total := days * 2880
	for i := 0; i < total; i++ {
		ts := start.Add(time.Duration(i) * 30 * time.Second)
		if err := arch.Ingest(nyquist.Point{Time: ts, Value: dev.At(float64(i) * 30)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := arch.Flush(); err != nil {
		log.Fatal(err)
	}

	raw, stored, aliasedBlocks := arch.Savings()
	model := fleet.DefaultCostModel()
	fmt.Printf("polled:  %6d samples (%.0f KB at %0.f B/sample)\n",
		raw, float64(raw)*model.StoreBytesPerSample/1024, model.StoreBytesPerSample)
	fmt.Printf("stored:  %6d samples (%.1f KB) — %.0fx smaller\n",
		stored, float64(stored)*model.StoreBytesPerSample/1024, arch.Reduction())
	fmt.Printf("blocks kept raw (aliased or too short): %d\n\n", aliasedBlocks)

	// The read path: reconstruct at the original resolution and compare
	// against what a direct store would have held.
	rec, err := arch.ReadBack(1.0 / 30)
	if err != nil {
		log.Fatal(err)
	}
	orig := make([]float64, total)
	for i := range orig {
		orig[i] = dev.At(float64(i) * 30)
	}
	n := rec.Len()
	if n > total {
		n = total
	}
	fid, err := nyquist.CompareSignals(orig[:n], rec.Values[:n])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read back %d samples at the original 30 s grid\n", n)
	fmt.Printf("reconstruction: NRMSE %.4f, max error %.2f %s\n",
		fid.NRMSE, fid.MaxAbs, dev.Profile().Unit)
	fmt.Println("\nThe TSDB holds a fraction of the bytes; queries see the same signal.")

	// The storage leg itself is now a sharded multi-resolution tsdb.
	// Re-run the same session against a store bounded to a sliver of the
	// archived footprint: where the seed store failed the write and
	// stalled, the engine cascades old samples into Nyquist-derived
	// min/max/mean tiers — resolution degrades, the session never stops.
	small := fleet.NewTieredStore(fleet.StoreConfig{
		Retention: fleet.RetentionConfig{RawCapacity: 64, TierCapacity: 32},
	})
	arch2, err := fleet.NewArchiver(dev.ID, small, 30*time.Second, fleet.ArchiverConfig{
		WindowSamples: 2880,
		QuantStep:     dev.Profile().QuantStep,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < total; i++ {
		ts := start.Add(time.Duration(i) * 30 * time.Second)
		if err := arch2.Ingest(nyquist.Point{Time: ts, Value: dev.At(float64(i) * 30)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := arch2.Flush(); err != nil {
		log.Fatal(err)
	}
	st := small.Stats()
	fmt.Printf("\nbounded store (64-point raw store): %d writes -> %d retained, %d compacted, %d dropped\n",
		st.Appends, st.Retained(), st.Compacted, st.Dropped)
	for _, s := range small.Snapshot() {
		fmt.Printf("  %s: retention tuned to %.4g Hz (archiver estimate), raw %d pts\n",
			s.ID, s.NyquistRate, s.RawPoints)
		for i, t := range s.Tiers {
			fmt.Printf("    tier %d: %3d buckets @ %v (%d samples summarized)\n",
				i+1, t.Buckets, t.Width, t.Samples)
		}
	}

	// The operator's range query: day 1 under a 12-point budget. The
	// engine stitches the cheapest tiers covering the window and thins to
	// the budget.
	res, err := small.Query(dev.ID, start, start.Add(24*time.Hour), 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery day 1 (budget 12): %d points, thinned=%v, tiers:", len(res.Points), res.Thinned)
	for _, ts := range res.Tiers {
		fmt.Printf(" [tier %d: %d pts]", ts.Tier, ts.Points)
	}
	fmt.Println()
}
