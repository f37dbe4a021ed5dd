package api

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/monitor"
	"repro/internal/tsdb"
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
		if err := srv.runIngest(&br, -1, &resp, &tally); err != nil {
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

// TestIngestBatchRestBytes prints the bytes one pooled ingest batch holds
// at rest, once put back: after a highcard_http-shaped HTTP body (512
// lines of 67 B, one series each) and after a steady_bulk-shaped frame
// (64 series × 64 consecutive samples, 4,096 lines of 66 B). It counts the
// batch, its payload buffer, its line slots, the chunk's points and the
// other per-chunk slices at their capacities; the series map, cleared in
// place, is not counted.
func TestIngestBatchRestBytes(t *testing.T) {
	rest := func(body string, frame bool) int {
		srv := NewServer(Config{})
		b := ingestBatchPool.New().(*ingestBatch)
		limit := int(srv.cfg.MaxBodyBytes) + 1
		if frame {
			limit = len(body)
		}
		data, err := b.readBody(strings.NewReader(body), limit)
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		var resp IngestResponse
		var tally ingestTally
		srv.ingestPayload(b, data, nil, &resp, &tally)
		if resp.Rejected != 0 {
			t.Fatalf("rejected %d lines: %+v", resp.Rejected, resp.Errors)
		}
		putIngestBatch(b)
		return int(unsafe.Sizeof(*b)) + cap(b.buf) +
			cap(b.win.slots)*int(unsafe.Sizeof(lineSlot{})) +
			cap(b.pts)*int(unsafe.Sizeof(tsdb.BatchPoint{})) +
			cap(b.meta)*int(unsafe.Sizeof(pointMeta{})) +
			cap(b.rejects)*int(unsafe.Sizeof(lineReject{})) +
			cap(b.series)*int(unsafe.Sizeof(batchSeries{})) +
			(cap(b.sidCounts)+cap(b.sidOffs)+cap(b.order))*4 +
			cap(b.runs)*int(unsafe.Sizeof(monitor.Run{}))
	}
	var body, frame strings.Builder
	for s := range 512 {
		fmt.Fprintf(&body, "{\"series\":\"highcard/rack%02d/s%04d/m\",\"ts\":%d,\"value\":%5.2f}\n",
			s%16, s, 1753500000, 20+float64(s%70))
	}
	for s := range 64 {
		for k := range 64 {
			fmt.Fprintf(&frame, "{\"series\":\"dash/rack%02d/dev%02d/temp\",\"ts\":%d,\"value\":%5.2f}\n",
				s/8, s%8, 1753500000+30*k, 20+float64(k%70))
		}
	}
	if body.Len() != 512*67 || frame.Len() != 4096*66 {
		t.Fatalf("body %d and frame %d bytes, want 512 × 67 and 4,096 × 66", body.Len(), frame.Len())
	}
	t.Logf("pooled ingest batch bytes at rest: %d after a 512-line highcard_http body, %d after a 4,096-line steady_bulk frame",
		rest(body.String(), false), rest(frame.String(), true))
}
