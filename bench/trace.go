// The traced replay: separate from the wire run (whose numbers are taken
// with tracing off), in process, from the benchmark's own files. It
// replays the first million points and 500 queries of a workload once
// through the whole stack and once through each layer alone on identical
// input, with a span around every call into a layer's public functions.
// Spans are kept in memory and written to bench/out/trace-<workload>.json
// at the end.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

const (
	tracePoints  = 1_000_000
	traceQueries = 500
	// traceSyncEvery is how many frames pass between the timed explicit
	// WAL syncs of the layer-alone replay.
	traceSyncEvery = 16
)

// span is one timed call. Spans of one frame (or query) share its
// ordinal in Item; Parent is the id of the segment span that caused it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Item    int    `json:"item"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id; parent −1 marks a segment.
func (t *tracer) begin(name string, parent, item int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Item: item, StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].EndNs = int64(time.Since(t.t0)) }

// total is the summed duration of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			d += t.spans[i].EndNs - t.spans[i].StartNs
		}
	}
	return time.Duration(d)
}

// median is the median duration of the spans called name, in seconds.
func (t *tracer) median(name string) float64 {
	var xs []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			xs = append(xs, float64(t.spans[i].EndNs-t.spans[i].StartNs)/1e9)
		}
	}
	return percentile(xs, 0.5)
}

// stack is one in-process serving stack configured like the daemon.
type stack struct {
	store   *monitor.Store
	est     *monitor.IngestEstimator
	srv     *api.Server
	handler http.Handler
	durable *wal.Durable
}

func walOptions() wal.Options {
	return wal.Options{
		FsyncEvery:    10 * time.Millisecond,
		SnapshotEvery: -1,
		StateEvery:    -1,
		ScrubEvery:    -1,
	}
}

// newStack builds a stack; a non-empty walDir arms the WAL there.
func newStack(walDir string) (*stack, error) {
	s := &stack{store: api.DefaultStore()}
	s.est = monitor.NewIngestEstimator(s.store, monitor.IngestConfig{
		WindowSamples: 256, EmitEvery: 8, MaxSeries: 1_000_000, EvictAfter: -1,
	})
	s.srv = api.NewServer(api.Config{Store: s.store, Estimator: s.est})
	s.handler = s.srv.Handler()
	if walDir != "" {
		d, err := wal.Open(walDir, s.store, s.est, walOptions())
		if err != nil {
			return nil, err
		}
		s.durable = d
		s.srv.SetDurable(d)
	}
	return s, nil
}

func ingestRequest(lines []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/api/v1/ingest", bytes.NewReader(lines))
}

func decodeAck(rec *httptest.ResponseRecorder) (int, ingestAck, error) {
	var ack ingestAck
	err := json.Unmarshal(rec.Body.Bytes(), &ack)
	return rec.Code, ack, err
}

// post feeds one frame's lines to the ingest handler.
func (s *stack) post(lines []byte) (int, ingestAck, error) {
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, ingestRequest(lines))
	return decodeAck(rec)
}

// seriesRun is one series' consecutive samples within a frame — the unit
// the api layer hands the estimator.
type seriesRun struct {
	id  string
	pts []series.Point
}

// traceFrame is one frame in every form a layer takes it.
type traceFrame struct {
	lines []byte
	batch []tsdb.BatchPoint
	runs  []seriesRun
}

func (r *run) traceFrame(idx int) traceFrame {
	f := traceFrame{lines: r.g.appendFrameLines(nil, &r.w, idx)}
	r.w.eachSample(idx, func(i, k int) {
		id := r.g.series[i].id
		p := series.Point{Time: time.Unix(epoch+int64(k), 0), Value: r.g.value(i, k)}
		f.batch = append(f.batch, tsdb.BatchPoint{ID: id, P: p})
		if n := len(f.runs); n == 0 || f.runs[n-1].id != id {
			f.runs = append(f.runs, seriesRun{id: id})
		}
		last := &f.runs[len(f.runs)-1]
		last.pts = append(last.pts, p)
	})
	return f
}

// traced runs the replay and fills r.layer with the trace.* metrics.
func (r *run) traced(outDir string) error {
	w := &r.w
	nFrames := tracePoints / w.frameLines()
	groups := w.series / w.frameSeries
	nFrames -= nFrames % groups // whole slabs: every series ends on the same sample
	frames := make([]traceFrame, nFrames)
	for i := range frames {
		frames[i] = r.traceFrame(i)
	}
	points := float64(nFrames * w.frameLines())
	perSeries := nFrames / groups * w.run

	tmp, err := os.MkdirTemp(r.buildDir, "trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tr := &tracer{t0: time.Now()}
	var checks tally

	// Whole stack: handler, store, estimator, WAL armed.
	whole, err := newStack(filepath.Join(tmp, "whole"))
	if err != nil {
		return err
	}
	seg := tr.begin("segment.ingest.whole", -1, -1)
	for i := range frames {
		// The span covers the handler alone: building the request and
		// decoding the answer are the driver's work, not the stack's.
		rec, req := httptest.NewRecorder(), ingestRequest(frames[i].lines)
		id := tr.begin("api.ingest", seg, i)
		whole.handler.ServeHTTP(rec, req)
		tr.end(id)
		code, ack, err := decodeAck(rec)
		checks.check(err == nil && code == http.StatusOK && ack.Accepted == w.frameLines() && ack.Rejected == 0,
			"traced ingest frame %d: HTTP %d, %+v, %v", i, code, ack, err)
	}
	tr.end(seg)

	// tsdb alone, then tsdb with the WAL's seal hook: the difference
	// between the passes is the WAL's share of ingest. The hooked pass
	// also times an explicit sync every traceSyncEvery frames.
	appendPass := func(segment, call string, s *stack) {
		seg := tr.begin(segment, -1, -1)
		for i := range frames {
			batch := append([]tsdb.BatchPoint(nil), frames[i].batch...)
			id := tr.begin(call, seg, i)
			n := s.store.DB().AppendBatch(batch)
			tr.end(id)
			checks.check(n == len(batch), "traced %s frame %d: accepted %d of %d", call, i, n, len(batch))
			if s.durable != nil && (i+1)%traceSyncEvery == 0 {
				id := tr.begin("wal.Sync", seg, i)
				err := s.durable.Sync()
				tr.end(id)
				checks.op(err)
			}
		}
		tr.end(seg)
	}
	bare, err := newStack("")
	if err != nil {
		return err
	}
	appendPass("segment.ingest.tsdb", "tsdb.AppendBatch", bare)
	walDir := filepath.Join(tmp, "wal")
	hooked, err := newStack(walDir)
	if err != nil {
		return err
	}
	appendPass("segment.ingest.tsdb_wal", "tsdb.AppendBatch+wal", hooked)
	checks.op(hooked.durable.Close())

	// Replay of the directory just written, then a snapshot of the result.
	seg = tr.begin("segment.wal.replay", -1, -1)
	id := tr.begin("wal.Open", seg, -1)
	reopened, err := newStack(walDir)
	tr.end(id)
	tr.end(seg)
	if err != nil {
		return err
	}
	replay := reopened.durable.Replay()
	checks.check(replay.Points == int64(points), "traced replay restored %d points, want %d", replay.Points, int64(points))
	seg = tr.begin("segment.wal.snapshot", -1, -1)
	id = tr.begin("wal.Snapshot", seg, -1)
	err = reopened.durable.Snapshot()
	tr.end(id)
	tr.end(seg)
	checks.op(err)
	checks.op(reopened.durable.Close())

	// Estimator layers alone: the monitor hook as api feeds it, and the
	// core estimator under it.
	est := monitor.NewIngestEstimator(bare.store, whole.est.Config())
	seg = tr.begin("segment.ingest.monitor", -1, -1)
	for i := range frames {
		id := tr.begin("monitor.ObserveRun", seg, i)
		n := 0
		for _, run := range frames[i].runs {
			n += est.ObserveRun(run.id, run.pts)
		}
		tr.end(id)
		checks.check(n == w.frameLines(), "traced ObserveRun frame %d: observed %d of %d", i, n, w.frameLines())
	}
	tr.end(seg)
	streams := make(map[string]*core.StreamEstimator, w.series)
	for i := range r.g.series {
		se, err := core.NewStreamEstimator(core.StreamConfig{Interval: time.Second, WindowSamples: 256, EmitEvery: 8})
		if err != nil {
			return err
		}
		streams[r.g.series[i].id] = se
	}
	seg = tr.begin("segment.ingest.core", -1, -1)
	for i := range frames {
		id := tr.begin("core.Push", seg, i)
		for _, run := range frames[i].runs {
			se := streams[run.id]
			for _, p := range run.pts {
				se.Push(p.Value)
			}
		}
		tr.end(id)
	}
	tr.end(seg)

	// Codec alone: every full block of every series (one short block each
	// when the replay ends before a series fills its first).
	seg = tr.begin("segment.codec", -1, -1)
	size := min(blockPoints, perSeries)
	blockPts := make([]series.Point, 0, size)
	var decoded []series.Point
	codecPoints := 0
	for i := range r.g.series {
		for b := 0; b+size <= perSeries; b += size {
			blockPts = blockPts[:0]
			for k := b; k < b+size; k++ {
				blockPts = append(blockPts, series.Point{Time: time.Unix(epoch+int64(k), 0), Value: r.g.value(i, k)})
			}
			id := tr.begin("tsdb.EncodeBlock", seg, i)
			blk, err := tsdb.EncodeBlock(blockPts)
			tr.end(id)
			checks.op(err)
			id = tr.begin("tsdb.Block.Points", seg, i)
			decoded, err = blk.Points(decoded[:0])
			tr.end(id)
			checks.check(err == nil && len(decoded) == size && decoded[size-1] == blockPts[size-1],
				"traced codec round trip of series %d block %d", i, b/size)
			codecPoints += size
		}
	}
	tr.end(seg)

	// Queries: the store call alone, then the same specs through the
	// handler. The two passes use different stores so the second does not
	// inherit the first's decoded blocks.
	specs := querySpecs(r.g, w, r.seed, traceQueries, epoch+int64(perSeries)-1)
	seg = tr.begin("segment.query.tsdb", -1, -1)
	tsdbName := "tsdb.Query"
	if w.match {
		tsdbName = "tsdb.QueryMatch"
	}
	for i, q := range specs {
		from, to := unixOrZero(q.from), unixOrZero(q.to)
		// The point budget and series cap the api layer would pass.
		budget := 10000
		if w.maxPoints > 0 {
			budget = w.maxPoints
		}
		id := tr.begin(tsdbName, seg, i)
		got := 0
		if w.match {
			got = len(bare.store.DB().QueryMatch(q.target, from, to, budget, 512).Results)
		} else if res, err := bare.store.DB().Query(q.target, from, to, budget); err == nil {
			got = len(res.Points)
		}
		tr.end(id)
		checks.check(got > 0, "traced store query %d (%s) came back empty", i, q.target)
	}
	tr.end(seg)
	seg = tr.begin("segment.query.whole", -1, -1)
	for i, q := range specs {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, w.queryPath(q), nil)
		id := tr.begin("api.query", seg, i)
		whole.handler.ServeHTTP(rec, req)
		tr.end(id)
		checks.check(rec.Code == http.StatusOK && rec.Body.Len() > 0, "traced query %d: HTTP %d", i, rec.Code)
	}
	tr.end(seg)
	checks.op(whole.durable.Close())

	r.ops.merge(checks)

	nsPerPoint := func(name string, n float64) float64 { return float64(tr.total(name)) / n }
	wholeNs := nsPerPoint("api.ingest", points)
	appendNs := nsPerPoint("tsdb.AppendBatch", points)
	appendWalNs := nsPerPoint("tsdb.AppendBatch+wal", points)
	observeNs := nsPerPoint("monitor.ObserveRun", points)
	walNs := appendWalNs - appendNs
	r.layer["trace.api.ingest_ns_per_point"] = wholeNs
	r.layer["trace.tsdb.append_batch_ns_per_point"] = appendNs
	r.layer["trace.tsdb.encode_ns_per_point"] = nsPerPoint("tsdb.EncodeBlock", float64(codecPoints))
	r.layer["trace.tsdb.decode_ns_per_point"] = nsPerPoint("tsdb.Block.Points", float64(codecPoints))
	r.layer["trace.monitor.observe_run_ns_per_point"] = observeNs
	r.layer["trace.core.push_ns_per_sample"] = nsPerPoint("core.Push", points)
	r.layer["trace.wal.seal_append_ns_per_point"] = walNs
	r.layer["trace.wal.sync_us"] = tr.median("wal.Sync") * 1e6
	r.layer["trace.wal.snapshot_ms"] = tr.total("wal.Snapshot").Seconds() * 1e3
	r.layer["trace.wal.replay_ns_per_point"] = float64(replay.Duration) / points
	// The layers timed alone against the whole: what is left over is the
	// api layer's self time (scan, parse, intern, response), which no
	// public call isolates.
	r.layer["trace.api.ingest_residual_ns_per_point"] = wholeNs - (appendNs + observeNs + walNs)
	r.layer["trace.reconcile_ratio"] = (appendNs + observeNs + walNs) / wholeNs
	r.layer["trace.tsdb.query_us"] = tr.median("tsdb.Query") * 1e6
	r.layer["trace.tsdb.query_match_us"] = tr.median("tsdb.QueryMatch") * 1e6
	r.layer["trace.api.query_us"] = tr.median("api.query") * 1e6
	r.layer["trace.api.query_residual_us"] = (tr.median("api.query") - tr.median(tsdbName)) * 1e6
	r.layer["trace.spans"] = float64(len(tr.spans))

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	out := filepath.Join(outDir, "trace-"+w.name+".json")
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Points   int    `json:"points"`
		Queries  int    `json:"queries"`
		Spans    []span `json:"spans"`
	}{w.name, r.seed, int(points), len(specs), tr.spans}
	if err := os.WriteFile(out, mustJSON(doc), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %s traced replay done in %.2fs, %d spans in %s\n", w.name, time.Since(tr.t0).Seconds(), len(tr.spans), out)
	return nil
}

func unixOrZero(sec int64) time.Time {
	if sec == 0 {
		return time.Time{}
	}
	return time.Unix(sec, 0)
}
