package api

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFastParseZeroAlloc pins the per-line contract of the zero-copy
// hot path: parsing a well-formed line and resolving an already-interned
// series id must not allocate at all. fastParseLine returns views into
// the input buffer, and a warm interner answers the []byte lookup via
// the compiler's map[string(b)] optimization — if either ever regresses
// to a copy, this test fails with a nonzero count.
func TestFastParseZeroAlloc(t *testing.T) {
	srv := NewServer(Config{})
	line := []byte(`{"series":"alloc/dev00/metric","ts":1753500000,"value":41.25}`)
	fl, ok := fastParseLine(line)
	if !ok {
		t.Fatalf("fast path refused canonical line %q", line)
	}
	srv.interned.intern(fl.series) // warm: first intern copies, later hits must not

	if n := testing.AllocsPerRun(200, func() {
		fl, ok := fastParseLine(line)
		if !ok {
			t.Fatal("fast path refused line mid-run")
		}
		if got := srv.interned.intern(fl.series); got != "alloc/dev00/metric" {
			t.Fatalf("interned %q", got)
		}
	}); n != 0 {
		t.Fatalf("fast parse + warm intern allocates %.2f/line, want 0", n)
	}
}

// TestIngestBatchAllocCeiling pins the amortized allocation budget of
// the whole batched core — zero-copy parse, shard-affinity AppendBatch,
// seal path, estimator run-feeding — on warm repeat-series traffic.
// What a warm batch allocates is what the store retains: the payload of
// each block it seals. Estimator refreshes write into state each series'
// estimator owns, and only a series' first sight and its interval probe
// allocate on the estimator side, so neither shows here. The seed's
// per-line loop sat near 4 allocs/point and the batched core near 0.25
// while every refresh allocated its update; sealed payloads alone come
// to about 0.01, and this ceiling fails the build if a per-point or
// per-refresh allocation ever creeps back in.
func TestIngestBatchAllocCeiling(t *testing.T) {
	const (
		batchLines = 1000
		nSeries    = 16
		runs       = 20
		ceiling    = 0.02 // allocs per point, amortized over a warm batch
	)
	srv := NewServer(Config{})
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	mkBatch := func(iter int) []byte {
		var sb strings.Builder
		sb.Grow(batchLines * 64)
		base := start.Add(time.Duration(iter*batchLines/nSeries) * 30 * time.Second)
		for i := 0; i < batchLines; i++ {
			ts := base.Add(time.Duration(i/nSeries) * 30 * time.Second)
			fmt.Fprintf(&sb, `{"series":"alloc/dev%02d/metric","ts":%d,"value":%.2f}`+"\n",
				i%nSeries, ts.Unix(), 40+float64(i%37)*0.25)
		}
		return []byte(sb.String())
	}
	// Bodies are pre-rendered outside the measured region; the strict
	// store requires advancing timestamps, so each run consumes the next
	// window. Two warm batches first: they populate the interner, the
	// batch pool, and every per-series estimator window.
	bodies := make([][]byte, runs+3)
	for i := range bodies {
		bodies[i] = mkBatch(i)
	}
	var br bytes.Reader
	next := 0
	run := func() {
		br.Reset(bodies[next])
		next++
		var resp IngestResponse
		var tally ingestTally
		if err := srv.runIngest(&br, &resp, &tally); err != nil {
			t.Fatal(err)
		}
		if resp.Accepted != batchLines {
			t.Fatalf("accepted %d/%d (rejected %d: %+v)", resp.Accepted, batchLines, resp.Rejected, resp.Errors)
		}
		tally.flush(srv.metrics)
	}
	run()
	run()
	perBatch := testing.AllocsPerRun(runs, run)
	perPoint := perBatch / batchLines
	t.Logf("warm ingest allocs per point: %.3f (%.0f per %d-line batch)", perPoint, perBatch, batchLines)
	if raceEnabled {
		t.Skip("race build: its sync.Pool drops pooled buffers at random")
	}
	if perPoint > ceiling {
		t.Fatalf("warm ingest batch allocates %.0f/batch = %.3f/point, ceiling %.2f/point",
			perBatch, perPoint, ceiling)
	}
}
