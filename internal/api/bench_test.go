package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/wal"
)

// BenchmarkIngestBatch measures the serving hot path: one op is a
// 1000-line POST /api/v1/ingest batch (store append + estimate-on-ingest
// for every line), spread over 16 series. points/s is reported as a
// custom metric.
func BenchmarkIngestBatch(b *testing.B) {
	srv := NewServer(Config{})
	h := srv.Handler()
	const (
		batchLines = 1000
		nSeries    = 16
	)
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	// Pre-render one batch per iteration window: distinct timestamps per
	// iteration keep the store appending forward, as a real poller
	// would. Bodies are rebuilt cheaply by timestamp offset.
	mkBatch := func(iter int) string {
		var sb strings.Builder
		sb.Grow(batchLines * 64)
		base := start.Add(time.Duration(iter*batchLines/nSeries) * 30 * time.Second)
		for i := 0; i < batchLines; i++ {
			ts := base.Add(time.Duration(i/nSeries) * 30 * time.Second)
			fmt.Fprintf(&sb, `{"series":"bench/dev%02d/metric","ts":%d,"value":%.2f}`+"\n",
				i%nSeries, ts.Unix(), 40+float64(i%37)*0.25)
		}
		return sb.String()
	}
	// Bodies never repeat — the strict serving store rejects timestamp
	// rewinds, so each iteration advances the grid — but only a small
	// rotating window is retained, rendered outside the timed sections,
	// so the benchmark's own strings don't become GC ballast.
	bodies := make([]string, 8)
	refill := func(from int) {
		for j := range bodies {
			bodies[j] = mkBatch(from + j)
		}
	}
	refill(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(bodies) == 0 {
			b.StopTimer()
			refill(i)
			b.StartTimer()
		}
		req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", strings.NewReader(bodies[i%len(bodies)]))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rw.Code, rw.Body.String())
		}
	}
	b.StopTimer()
	pointsPerSec := float64(b.N) * batchLines / b.Elapsed().Seconds()
	b.ReportMetric(pointsPerSec, "points/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLines), "ns/point")
}

// BenchmarkIngestWithWAL is BenchmarkIngestBatch with durability armed:
// the same 1000-line batches, but every sealed block is framed into the
// write-ahead log under the default 10ms group-commit window. The delta
// against BenchmarkIngestBatch is the whole durability tax on the hot
// path.
func BenchmarkIngestWithWAL(b *testing.B) {
	store := DefaultStore()
	est := monitor.NewIngestEstimator(store, monitor.IngestConfig{})
	d, err := wal.Open(b.TempDir(), store, est, wal.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	srv := NewServer(Config{Store: store, Estimator: est})
	srv.SetDurable(d)
	h := srv.Handler()
	const (
		batchLines = 1000
		nSeries    = 16
	)
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	mkBatch := func(iter int) string {
		var sb strings.Builder
		sb.Grow(batchLines * 64)
		base := start.Add(time.Duration(iter*batchLines/nSeries) * 30 * time.Second)
		for i := 0; i < batchLines; i++ {
			ts := base.Add(time.Duration(i/nSeries) * 30 * time.Second)
			fmt.Fprintf(&sb, `{"series":"bench/dev%02d/metric","ts":%d,"value":%.2f}`+"\n",
				i%nSeries, ts.Unix(), 40+float64(i%37)*0.25)
		}
		return sb.String()
	}
	// Same rotating-window body generation as BenchmarkIngestBatch:
	// timestamps always advance (the strict store and the WAL both
	// require it) without retaining unbounded strings.
	bodies := make([]string, 8)
	refill := func(from int) {
		for j := range bodies {
			bodies[j] = mkBatch(from + j)
		}
	}
	refill(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(bodies) == 0 {
			b.StopTimer()
			refill(i)
			b.StartTimer()
		}
		req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", strings.NewReader(bodies[i%len(bodies)]))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rw.Code, rw.Body.String())
		}
	}
	b.StopTimer()
	pointsPerSec := float64(b.N) * batchLines / b.Elapsed().Seconds()
	b.ReportMetric(pointsPerSec, "points/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLines), "ns/point")
}

// BenchmarkQueryRecent measures the read hot path: a recent-window query
// with a 500-point budget against a store holding compressed history.
func BenchmarkQueryRecent(b *testing.B) {
	srv := NewServer(Config{})
	h := srv.Handler()
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	var sb strings.Builder
	for i := 0; i < 8192; i++ {
		fmt.Fprintf(&sb, `{"series":"bench/dev00/metric","ts":%d,"value":%.2f}`+"\n",
			start.Add(time.Duration(i)*30*time.Second).Unix(), 40+float64(i%37)*0.25)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/ingest", strings.NewReader(sb.String()))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		b.Fatalf("seed ingest: HTTP %d", rw.Code)
	}
	from := start.Add(7000 * 30 * time.Second).Format(time.RFC3339)
	url := "/api/v1/query?series=bench/dev00/metric&from=" + from + "&max_points=500"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, url, nil))
		if rw.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rw.Code)
		}
	}
}

// BenchmarkIngestBatchAffinity measures the batched ingest core alone —
// runIngest driven straight over an in-memory body, no HTTP plumbing —
// so the number isolates zero-copy parse + shard-affinity AppendBatch +
// estimator run-feeding. The delta against BenchmarkIngestBatch is the
// HTTP tax; the delta against the seed's per-line loop is the tentpole.
func BenchmarkIngestBatchAffinity(b *testing.B) {
	srv := NewServer(Config{})
	const (
		batchLines = 1000
		nSeries    = 16
	)
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	mkBatch := func(iter int) []byte {
		var sb strings.Builder
		sb.Grow(batchLines * 64)
		base := start.Add(time.Duration(iter*batchLines/nSeries) * 30 * time.Second)
		for i := 0; i < batchLines; i++ {
			ts := base.Add(time.Duration(i/nSeries) * 30 * time.Second)
			fmt.Fprintf(&sb, `{"series":"bench/dev%02d/metric","ts":%d,"value":%.2f}`+"\n",
				i%nSeries, ts.Unix(), 40+float64(i%37)*0.25)
		}
		return []byte(sb.String())
	}
	bodies := make([][]byte, 8)
	refill := func(from int) {
		for j := range bodies {
			bodies[j] = mkBatch(from + j)
		}
	}
	refill(0)
	var br bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(bodies) == 0 {
			b.StopTimer()
			refill(i)
			b.StartTimer()
		}
		br.Reset(bodies[i%len(bodies)])
		var resp IngestResponse
		var tally ingestTally
		if err := srv.runIngest(&br, -1, &resp, &tally); err != nil {
			b.Fatal(err)
		}
		if resp.Accepted != batchLines {
			b.Fatalf("accepted %d/%d (rejected %d: %+v)", resp.Accepted, batchLines, resp.Rejected, resp.Errors)
		}
		tally.flush(srv.metrics)
	}
	b.StopTimer()
	pointsPerSec := float64(b.N) * batchLines / b.Elapsed().Seconds()
	b.ReportMetric(pointsPerSec, "points/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLines), "ns/point")
}

// BenchmarkIngestFrame is the ingest core on steady_bulk's frame shape
// with the WAL armed: one op is a 4,096-line frame of 64 series × 64
// consecutive samples (run-grouped, as bulk pushers send them), read
// from memory into the pooled batch as the bulk lane reads a frame, so the
// parser's same-series sid reuse and every stage's fan-out over the
// cores show, unlike in the 16-series, line-interleaved 1,000-line
// benchmarks above.
func BenchmarkIngestFrame(b *testing.B) {
	store := DefaultStore()
	est := monitor.NewIngestEstimator(store, monitor.IngestConfig{})
	d, err := wal.Open(b.TempDir(), store, est, wal.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	srv := NewServer(Config{Store: store, Estimator: est})
	srv.SetDurable(d)
	const (
		nSeries = 64
		run     = 64
		lines   = nSeries * run
	)
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC).Unix()
	// Frames are rendered with strconv appends into buffers reused across
	// refills, so the timed frames collect no garbage of their making.
	frames := make([][]byte, 8)
	refill := func(from int) {
		for j := range frames {
			f, iter := frames[j][:0], from+j
			for s := 0; s < nSeries; s++ {
				for k := iter * run; k < (iter+1)*run; k++ {
					f = append(f, `{"series":"bench/dev`...)
					if s < 10 {
						f = append(f, '0')
					}
					f = strconv.AppendInt(f, int64(s), 10)
					f = append(f, `/metric","ts":`...)
					f = strconv.AppendInt(f, start+30*int64(k), 10)
					f = append(f, `,"value":`...)
					f = strconv.AppendFloat(f, 40+10*math.Sin(float64(k*(s+1))/50)+float64(k%7)*0.01, 'f', 2, 64)
					f = append(f, "}\n"...)
				}
			}
			frames[j] = f
		}
	}
	refill(0)
	var br bytes.Reader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(frames) == 0 {
			b.StopTimer()
			refill(i)
			b.StartTimer()
		}
		var resp IngestResponse
		var tally ingestTally
		f := frames[i%len(frames)]
		br.Reset(f)
		if err := srv.runIngest(&br, int64(len(f)), &resp, &tally); err != nil {
			b.Fatal(err)
		}
		if resp.Accepted != lines {
			b.Fatalf("accepted %d/%d (rejected %d: %+v)", resp.Accepted, lines, resp.Rejected, resp.Errors)
		}
		tally.flush(srv.metrics)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*lines/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/point")
}

// BenchmarkBulkLane measures the plain-TCP length-prefixed lane end to
// end over loopback: one op is a framed 1000-line batch written to a
// live ServeBulk listener plus the synchronous response read. Compare
// with BenchmarkIngestBatch (same batches over HTTP) for the framing
// win.
func BenchmarkBulkLane(b *testing.B) {
	srv := NewServer(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go srv.ServeBulk(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	const (
		batchLines = 1000
		nSeries    = 16
	)
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	mkFrame := func(iter int) []byte {
		var sb strings.Builder
		sb.Grow(batchLines*64 + 4)
		sb.Write([]byte{0, 0, 0, 0})
		base := start.Add(time.Duration(iter*batchLines/nSeries) * 30 * time.Second)
		for i := 0; i < batchLines; i++ {
			ts := base.Add(time.Duration(i/nSeries) * 30 * time.Second)
			fmt.Fprintf(&sb, `{"series":"bench/dev%02d/metric","ts":%d,"value":%.2f}`+"\n",
				i%nSeries, ts.Unix(), 40+float64(i%37)*0.25)
		}
		frame := []byte(sb.String())
		binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
		return frame
	}
	frames := make([][]byte, 8)
	refill := func(from int) {
		for j := range frames {
			frames[j] = mkFrame(from + j)
		}
	}
	refill(0)
	var hdr [4]byte
	respBuf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(frames) == 0 {
			b.StopTimer()
			refill(i)
			b.StartTimer()
		}
		if _, err := conn.Write(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			b.Fatal(err)
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > len(respBuf) {
			respBuf = make([]byte, n)
		}
		if _, err := io.ReadFull(conn, respBuf[:n]); err != nil {
			b.Fatal(err)
		}
		var out IngestResponse
		if err := json.Unmarshal(respBuf[:n], &out); err != nil {
			b.Fatal(err)
		}
		if out.Accepted != batchLines {
			b.Fatalf("accepted %d/%d (rejected %d)", out.Accepted, batchLines, out.Rejected)
		}
	}
	b.StopTimer()
	pointsPerSec := float64(b.N) * batchLines / b.Elapsed().Seconds()
	b.ReportMetric(pointsPerSec, "points/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLines), "ns/point")
}

// BenchmarkIngestWALParallel measures aggregate serving throughput with
// durability armed: GOMAXPROCS concurrent writers, each owning a
// disjoint series family, drive 1000-line batches through the batched
// core simultaneously — the soak test's topology, timed. This is the
// number the 2M points/s goal is chased on: per-series estimator locks
// and per-shard store locks mean independent writers should scale to
// core count. Bodies are pre-rendered once per writer; between
// iterations only the fixed-width timestamp digits are patched in
// place, so body generation stays off the timed path without
// StopTimer (unavailable under RunParallel).
func BenchmarkIngestWALParallel(b *testing.B) {
	store := DefaultStore()
	est := monitor.NewIngestEstimator(store, monitor.IngestConfig{})
	d, err := wal.Open(b.TempDir(), store, est, wal.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	srv := NewServer(Config{Store: store, Estimator: est})
	srv.SetDurable(d)
	const (
		batchLines = 1000
		nSeries    = 16
	)
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	var gid int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := atomic.AddInt64(&gid, 1)
		// Per-writer body: fixed-width 10-digit timestamps so each
		// iteration can advance every line by delta with digit surgery at
		// recorded offsets instead of re-rendering JSON.
		var sb strings.Builder
		sb.Grow(batchLines * 72)
		offs := make([]int, batchLines)
		tsv := make([]int64, batchLines)
		for i := 0; i < batchLines; i++ {
			ts := start.Add(time.Duration(i/nSeries) * 30 * time.Second).Unix()
			fmt.Fprintf(&sb, `{"series":"par%d/dev%02d/metric","ts":`, w, i%nSeries)
			offs[i] = sb.Len()
			fmt.Fprintf(&sb, `%010d,"value":%.2f}`+"\n", ts, 40+float64(i%37)*0.25)
			tsv[i] = ts
		}
		body := []byte(sb.String())
		delta := int64(batchLines / nSeries * 30)
		var br bytes.Reader
		for pb.Next() {
			br.Reset(body)
			var resp IngestResponse
			var tally ingestTally
			if err := srv.runIngest(&br, -1, &resp, &tally); err != nil {
				b.Fatal(err)
			}
			if resp.Accepted != batchLines {
				b.Fatalf("writer %d: accepted %d/%d (rejected %d: %+v)",
					w, resp.Accepted, batchLines, resp.Rejected, resp.Errors)
			}
			tally.flush(srv.metrics)
			for i, off := range offs {
				v := tsv[i] + delta
				tsv[i] = v
				for p := off + 9; p >= off; p-- {
					body[p] = byte('0' + v%10)
					v /= 10
				}
			}
		}
	})
	b.StopTimer()
	pointsPerSec := float64(b.N) * batchLines / b.Elapsed().Seconds()
	b.ReportMetric(pointsPerSec, "points/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLines), "ns/point")
}
