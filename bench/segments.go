// The five segments every workload runs through, against the real binary
// over the wire:
//
//	S0 setup       spawn, wait /readyz, preload closed-loop until acked
//	S1 ingest      N points closed-loop on one connection, nothing else running
//	S2 checkpoint  read the counters, every estimate, 64 reconstructions; verify
//	S3 query       M queries closed-loop beside an open-loop paced ingest stream
//	S4 recover     idle 200 ms, SIGKILL, restart on the same directory, verify
//
// Timed segments are count-bounded and closed-loop, with every request
// rendered before the clock starts. At no time are more than two generator
// goroutines runnable (this box has two cores): one in S1, two in S3.

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// sampledSeries is how many series the checkpoint reconstructs and both
// verifications read back.
const sampledSeries = 64

// pacedSeconds bounds the paced stream rendered for S3. S3 is sized to
// last less than half of this; a stream that runs out marks the run noisy.
const pacedSeconds = 15

// blockPoints is the daemon's default -compress-block: the unit the WAL
// persists, so recovery restores whole multiples of it per series.
const blockPoints = 128

// tally counts operations — frames, requests, queries, checks — against
// failures, and keeps the first few failures for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

// maxReported is how many failures a tally keeps the text of.
const maxReported = 8

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.fail(err.Error())
	}
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(fmt.Sprintf(format, args...))
	}
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.errs) < maxReported {
		t.errs = append(t.errs, msg)
	}
}

// merge adds what another goroutine or pass counted.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs[:min(len(o.errs), maxReported-len(t.errs))]...)
}

// run is one workload's pass through the segments.
type run struct {
	w        workload
	g        *generator
	seed     uint64
	bin      string
	buildDir string
	clean    *cleaner

	d       *daemon
	dataDir string
	lane    *conn // the ingest connection S0 and S1 share
	api     *conn // keep-alive HTTP connection for reads

	ops tally
	// framesSent is the position in the frame stream; every frame before
	// it was acknowledged in full.
	framesSent int
	// sampled are the series the checkpoint reconstructs and reads back.
	sampled []int

	e2e   map[string]float64
	layer map[string]float64
	noisy []string
}

func newRun(w workload, seed uint64, bin, buildDir string, clean *cleaner) *run {
	r := &run{
		w: w, g: newGenerator(seed, w.series), seed: seed,
		bin: bin, buildDir: buildDir, clean: clean,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	// The series carrying the middle signal of each of 64 equal ranges of
	// the signal set: the same 64 signals, spread over the band, whatever
	// the seed dealt them to.
	stride := w.series / sampledSeries
	for i := range r.g.series {
		if r.g.series[i].signal%stride == stride/2 {
			r.sampled = append(r.sampled, i)
		}
	}
	return r
}

// render renders n frames of the stream from position from, wrapped for
// the workload's lane, on every core: nothing else runs meanwhile.
func (r *run) render(from, n int) [][]byte {
	frames := make([][]byte, n)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var lines []byte
			for i := k; i < n; i += workers {
				lines = r.g.appendFrameLines(lines[:0], &r.w, from+i)
				frames[i] = wrapFrame(&r.w, lines)
			}
		}(k)
	}
	wg.Wait()
	return frames
}

// acked is how many samples of series i were acknowledged: frames walk
// the groups within a slab, so a series' count follows from the stream
// position alone.
func (r *run) acked(i int) int {
	groups := r.w.series / r.w.frameSeries
	slabs := r.framesSent / groups
	if i/r.w.frameSeries < r.framesSent%groups {
		slabs++
	}
	return slabs * r.w.run
}

func (r *run) pointsSent() int64 { return int64(r.framesSent) * int64(r.w.frameLines()) }

func (r *run) laneAddr() string {
	if r.w.http {
		return r.d.httpAddr
	}
	return r.d.bulkAddr
}

// spawn starts a daemon on r.dataDir and opens the read connection.
func (r *run) spawn() error {
	d, err := startDaemon(r.bin, r.dataDir)
	if err != nil {
		return err
	}
	r.d = d
	r.clean.add(d.kill)
	r.api, err = dial(d.httpAddr)
	return err
}

func (r *run) scrape() (promSnapshot, error) {
	body, err := r.api.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(body)
}

// setup is S0. setup_s runs from the spawn to the last preload ack; the
// build and the rendering are outside it.
func (r *run) setup() error {
	frames := r.render(0, r.w.frames(r.w.preload))
	begin := time.Now()
	dir, err := os.MkdirTemp(r.buildDir, "data-")
	if err != nil {
		return err
	}
	r.dataDir = dir
	r.clean.add(func() { os.RemoveAll(dir) })
	if err := r.spawn(); err != nil {
		return err
	}
	if r.lane, err = dial(r.laneAddr()); err != nil {
		return err
	}
	for _, f := range frames {
		r.ops.op(r.lane.ingest(&r.w, f))
	}
	r.e2e["setup_s"] = time.Since(begin).Seconds()
	r.framesSent = len(frames)
	return nil
}

// ingestWindows is how many equal-count windows S1 is cut into for the
// spread diagnostic.
const ingestWindows = 20

// ingest is S1.
func (r *run) ingest() error {
	frames := r.render(r.framesSent, r.w.frames(r.w.ingest))
	before, err := r.scrape()
	if err != nil {
		return err
	}
	points := float64(len(frames) * r.w.frameLines())
	lat := make([]float64, len(frames))
	var rates []float64
	perWindow := max(1, len(frames)/ingestWindows)
	self0, err := readProcStat(os.Getpid())
	if err != nil {
		return err
	}
	cpu0, err := readProcStat(r.d.pid())
	if err != nil {
		return err
	}
	begin := time.Now()
	window := begin
	for i, f := range frames {
		sent := time.Now()
		err := r.lane.ingest(&r.w, f)
		done := time.Now()
		lat[i] = done.Sub(sent).Seconds() * 1e3
		r.ops.op(err)
		if (i+1)%perWindow == 0 {
			rates = append(rates, float64(perWindow*r.w.frameLines())/done.Sub(window).Seconds())
			window = done
		}
	}
	wall := time.Since(begin).Seconds()
	cpu1, err := readProcStat(r.d.pid())
	if err != nil {
		return err
	}
	self1, err := readProcStat(os.Getpid())
	if err != nil {
		return err
	}
	r.framesSent += len(frames)
	after, err := r.scrape()
	if err != nil {
		return err
	}

	daemonCPU := cpu1.cpuSeconds - cpu0.cpuSeconds
	genCPU := self1.cpuSeconds - self0.cpuSeconds
	// Total over total, not a median of windows: a stall must show.
	r.layer["ingest_points_per_s"] = points / wall
	r.layer["ingest_cpu_us_per_point"] = daemonCPU * 1e6 / points
	r.layer["ack_p50_ms"] = percentile(lat, 0.5)
	r.layer["api.ack_p99_ms"] = percentile(lat, 0.99)
	r.layer["api.ack_samples"] = float64(len(lat))
	r.layer["bench.ingest_s"] = wall
	r.layer["bench.gen_cpu_s"] = genCPU
	r.layer["bench.window_iqr_ratio"] = iqrRatio(rates)
	if genCPU > 0.15*daemonCPU {
		r.noisy = append(r.noisy, fmt.Sprintf("generator CPU %.2fs exceeds 15%% of daemon CPU %.2fs in S1", genCPU, daemonCPU))
	}

	fast := delta(before, after, `nyquistd_ingest_parse_total{path="fast"}`)
	fallback := delta(before, after, `nyquistd_ingest_parse_total{path="fallback"}`)
	r.layer["api.parse_fallback_ratio"] = fallback / math.Max(1, fast+fallback)
	r.layer["api.server_ingest_p50_ms"] = 1e3 * histQuantile(before, after, "nyquistd_http_request_seconds", `handler="ingest"`, 0.5)
	r.layer["tsdb.sealed_blocks"] = delta(before, after, "nyquistd_tsdb_sealed_blocks_total")
	r.layer["tsdb.compacted_points"] = delta(before, after, "nyquistd_tsdb_compacted_total")
	r.layer["wal.records"] = delta(before, after, "nyquistd_wal_records_total")
	r.layer["wal.syncs"] = delta(before, after, "nyquistd_wal_syncs_total")
	r.layer["wal.fsync_p50_ms"] = 1e3 * histQuantile(before, after, "nyquistd_wal_fsync_seconds", "", 0.5)
	return nil
}

// The JSON the checkpoint reads; only the fields it uses.
type statsJSON struct {
	Series            int   `json:"series"`
	Appends           int64 `json:"appends"`
	CompressedBytes   int64 `json:"compressed_bytes"`
	CompressedEntries int64 `json:"compressed_entries"`
	WAL               *struct {
		WALBytes int64 `json:"wal_bytes"`
	} `json:"wal"`
}

type estimateJSON struct {
	NyquistHz float64 `json:"nyquist_hz"`
}

type queryJSON struct {
	Points []struct {
		TS    time.Time `json:"ts"`
		Value float64   `json:"value"`
	} `json:"points"`
}

type seriesJSON struct {
	Appends int64 `json:"appends"`
}

// seriesQuery is the query-string term naming one series. The
// benchmark's ids and patterns are made of [a-z0-9/*] only, so they go
// into a query string verbatim.
func seriesQuery(id string) string { return "series=" + id }

// verifyTail reads back the newest block of series i — samples
// [n−128, n) — and requires the generator's values, byte for byte as
// parsed floats.
func (r *run) verifyTail(i, n int) {
	from := epoch + int64(n-blockPoints)
	var q queryJSON
	path := fmt.Sprintf("/api/v1/query?%s&from=%d&to=%d", seriesQuery(r.g.series[i].id), from, from+blockPoints)
	if err := r.api.getJSON(path, &q); err != nil {
		r.ops.op(err)
		return
	}
	ok := len(q.Points) == blockPoints
	for j := 0; ok && j < blockPoints; j++ {
		k := n - blockPoints + j
		ok = q.Points[j].TS.Unix() == epoch+int64(k) && q.Points[j].Value == r.g.value(i, k)
	}
	r.ops.check(ok, "series %s: stored samples [%d,%d) differ from the generator's", r.g.series[i].id, n-blockPoints, n)
}

// checkpoint is S2: the store now holds an exact, input-determined set of
// points, so everything read here repeats bit for bit.
func (r *run) checkpoint() error {
	var st statsJSON
	if err := r.api.getJSON("/api/v1/stats", &st); err != nil {
		return err
	}
	snap, err := r.scrape()
	if err != nil {
		return err
	}
	dbg, err := dial(r.d.debugAddr)
	if err != nil {
		return err
	}
	defer dbg.close()
	heapText, err := dbg.get("/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return err
	}
	heap, err := parseHeapInuse(heapText)
	if err != nil {
		return err
	}
	proc, err := readProcStat(r.d.pid())
	if err != nil {
		return err
	}
	sent := r.pointsSent()
	r.ops.check(st.Appends == sent, "store appends %d, points sent %d", st.Appends, sent)
	r.ops.check(st.Series == r.w.series, "store series %d, want %d", st.Series, r.w.series)
	if st.WAL == nil || st.CompressedEntries == 0 {
		return fmt.Errorf("checkpoint: stats carry no WAL or no sealed entries")
	}
	r.e2e["stored_bytes_per_point"] = float64(st.CompressedBytes) / float64(st.CompressedEntries)
	r.e2e["wal_bytes_per_point"] = float64(st.WAL.WALBytes) / float64(sent)
	r.e2e["heap_bytes_per_series"] = float64(heap) / float64(r.w.series)

	relErr := make([]float64, r.w.series)
	unestimated := 0
	for i := range r.g.series {
		var e estimateJSON
		if err := r.api.getJSON("/api/v1/estimate?"+seriesQuery(r.g.series[i].id), &e); err != nil {
			r.ops.op(err)
			relErr[i] = 1
			continue
		}
		r.ops.op(nil)
		if e.NyquistHz == 0 {
			unestimated++
		}
		truth := r.g.nyquistHz(i)
		relErr[i] = math.Abs(e.NyquistHz-truth) / truth
	}
	r.e2e["estimate_rel_err_p50"] = percentile(relErr, 0.5)

	n := r.w.preload + r.w.ingest
	nrmse := make([]float64, 0, len(r.sampled))
	for _, i := range r.sampled {
		var q queryJSON
		err := r.api.getJSON("/api/v1/query?"+seriesQuery(r.g.series[i].id)+"&reconstruct=auto&max_points=4096", &q)
		r.ops.op(err)
		if err != nil || len(q.Points) == 0 {
			nrmse = append(nrmse, 1)
			continue
		}
		var sq float64
		for _, p := range q.Points {
			t := float64(p.TS.UnixNano())/1e9 - epoch
			d := p.Value - r.g.truth(i, t)
			sq += d * d
		}
		nrmse = append(nrmse, math.Sqrt(sq/float64(len(q.Points)))/r.g.peakToPeak(i))
		r.verifyTail(i, n)
	}
	r.e2e["reconstruct_nrmse_p50"] = percentile(nrmse, 0.5)

	r.layer["tsdb.tier_buckets"] = snap["nyquistd_tsdb_tier_buckets"]
	r.layer["monitor.probes"] = snap["nyquistd_estimator_probes_total"]
	r.layer["monitor.reprobes"] = snap["nyquistd_estimator_reprobes_total"]
	r.layer["monitor.retunes"] = snap["nyquistd_estimator_retunes_total"]
	r.layer["monitor.aliased_refreshes"] = snap["nyquistd_estimator_aliased_refreshes_total"]
	r.layer["monitor.estimator_series"] = snap["nyquistd_estimator_series"]
	r.layer["monitor.unestimated_series"] = float64(unestimated)
	r.layer["wal.segments"] = snap["nyquistd_wal_segments"]
	r.layer["bench.daemon_rss_bytes"] = float64(proc.rssBytes)
	return nil
}

// querySpec is one S3 query before rendering: the traced replay calls
// the store with the same specs the wire run renders into requests.
type querySpec struct {
	// target is a series id, or a rack pattern when the workload matches.
	target string
	// from and to bound the half-open window in Unix seconds; 0 leaves a
	// side unbounded.
	from, to int64
}

// querySpecs returns n queries of w's shape against a store whose newest
// sample is at newest. Targets are a seeded shuffle of the racks (match)
// or series, cut to w.targets and cycled in the same order every pass —
// which is what makes an LRU smaller than the set miss every time.
func querySpecs(g *generator, w *workload, seed uint64, n int, newest int64) []querySpec {
	targets := w.series
	if w.match {
		targets /= devicesPerRack
	}
	order := make([]int, targets)
	for i := range order {
		order[i] = i
	}
	shuffle := rng(seed ^ 0x9e3779b1)
	for i := targets - 1; i > 0; i-- {
		j := int(shuffle.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	if w.targets > 0 {
		order = order[:w.targets]
	}
	specs := make([]querySpec, n)
	for q := range specs {
		t := order[q%len(order)]
		if w.match {
			specs[q].target = g.rackPattern(t * devicesPerRack)
		} else {
			specs[q].target = g.series[t].id
		}
		if w.window > 0 {
			specs[q].from, specs[q].to = newest-int64(w.window)+1, newest+1
		}
	}
	return specs
}

// queryPath renders q as the request path of w's query shape.
func (w *workload) queryPath(q querySpec) string {
	path := "/api/v1/query?"
	if w.match {
		path += "match=" + q.target
	} else {
		path += seriesQuery(q.target)
	}
	if q.from != 0 {
		path += "&from=" + strconv.FormatInt(q.from, 10)
	}
	if q.to != 0 {
		path += "&to=" + strconv.FormatInt(q.to, 10)
	}
	if w.reconstruct {
		path += "&reconstruct=auto"
	}
	if w.maxPoints > 0 {
		path += "&max_points=" + strconv.Itoa(w.maxPoints)
	}
	return path
}

// pacedResult is what the paced stream's goroutine hands back.
type pacedResult struct {
	acks   tally
	frames int
	lateMs []float64
	ackMs  []float64 // from the due time, so a stall counts against later frames
	ranOut bool
}

// paced sends frames open-loop on c, one every period, until stop
// closes. One frame is in flight at a time.
func (r *run) paced(c *conn, frames [][]byte, period time.Duration, start time.Time, stop <-chan struct{}) pacedResult {
	var res pacedResult
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i, f := range frames {
		due := start.Add(time.Duration(i) * period)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return res
		case <-timer.C:
		}
		res.lateMs = append(res.lateMs, time.Since(due).Seconds()*1e3)
		res.acks.op(c.ingest(&r.w, f))
		res.ackMs = append(res.ackMs, time.Since(due).Seconds()*1e3)
		res.frames++
	}
	res.ranOut = true
	return res
}

// query is S3.
func (r *run) query() error {
	newest := epoch + int64(r.w.preload+r.w.ingest) - 1
	var reqs [][]byte
	for _, q := range querySpecs(r.g, &r.w, r.seed, r.w.queries, newest) {
		reqs = append(reqs, getRequest(r.w.queryPath(q)))
	}
	period := time.Duration(float64(r.w.frameLines()) / pacedRate * float64(time.Second))
	pacedFrames := r.render(r.framesSent, int(pacedSeconds*time.Second/period))
	pacedConn, err := dial(r.laneAddr())
	if err != nil {
		return err
	}
	defer pacedConn.close()
	before, err := r.scrape()
	if err != nil {
		return err
	}
	lat := make([]float64, len(reqs))
	stop := make(chan struct{})
	done := make(chan pacedResult, 1)
	begin := time.Now()
	go func() { done <- r.paced(pacedConn, pacedFrames, period, begin, stop) }()
	for i, req := range reqs {
		sent := time.Now()
		status, body, err := r.api.roundTripHTTP(req)
		lat[i] = time.Since(sent).Seconds() * 1e3
		if err == nil && (status != 200 || len(body) == 0) {
			err = fmt.Errorf("query %d: HTTP %d, %d bytes", i, status, len(body))
		}
		r.ops.op(err)
	}
	wall := time.Since(begin).Seconds()
	close(stop)
	p := <-done
	r.framesSent += p.frames
	r.ops.merge(p.acks)
	after, err := r.scrape()
	if err != nil {
		return err
	}

	r.layer["query_p50_ms"] = percentile(lat, 0.5)
	r.layer["api.query_p99_ms"] = percentile(lat, 0.99)
	r.layer["api.query_samples"] = float64(len(lat))
	r.layer["api.query_per_s"] = float64(len(reqs)) / wall
	r.layer["bench.query_s"] = wall
	r.layer["api.paced_ack_p50_ms"] = percentile(p.ackMs, 0.5)
	late := percentile(p.lateMs, 0.5)
	r.layer["bench.paced_late_p50_ms"] = late
	r.layer["bench.paced_frames"] = float64(p.frames)
	if late > 5 {
		r.noisy = append(r.noisy, fmt.Sprintf("paced stream ran %.1f ms late at the median", late))
	}
	if p.ranOut {
		r.noisy = append(r.noisy, fmt.Sprintf("query segment outlasted the %d s of paced stream rendered for it", pacedSeconds))
	}
	r.layer["api.response_bytes_per_query"] = delta(before, after, `nyquistd_http_response_bytes_total{handler="query"}`) / float64(len(reqs))
	hits := delta(before, after, "nyquistd_query_cache_hits_total")
	misses := delta(before, after, "nyquistd_query_cache_misses_total")
	r.layer["tsdb.cache_hit_ratio"] = hits / math.Max(1, hits+misses)
	r.layer["tsdb.cache_evictions"] = delta(before, after, "nyquistd_query_cache_evictions_total")
	r.layer["tsdb.cache_invalidations"] = delta(before, after, "nyquistd_query_cache_invalidations_total")
	return nil
}

// recoverSegment is S4: w.recoveries times over, SIGKILL, restart on the
// same directory, time exec to /readyz 200, verify. SIGKILL leaves the
// page cache intact, so what is timed is replay from cached files, not
// from a device.
func (r *run) recoverSegment() error {
	// Twenty group-commit windows: every sealed block is on disk.
	time.Sleep(200 * time.Millisecond)
	snap, err := r.scrape()
	if err != nil {
		return err
	}
	sealed := int64(snap["nyquistd_tsdb_sealed_blocks_total"])
	walErrors := snap["nyquistd_wal_errors_total"]
	r.lane.close()

	var took, replaySeconds float64
	var replayed int64
	for k := 0; k < r.w.recoveries; k++ {
		r.ops.op(r.d.stderrErr())
		r.api.close()
		r.d.kill()
		if err := r.spawn(); err != nil {
			return err
		}
		took += r.d.readyAt.Sub(r.d.spawned).Seconds()
		after, err := r.scrape()
		if err != nil {
			return err
		}
		got := int64(after["nyquistd_wal_replay_points"])
		r.ops.check(got == sealed*blockPoints, "recovery %d replayed %d points, want %d sealed blocks x %d", k, got, sealed, blockPoints)
		r.ops.check(r.d.recovered.points == got, "recovered line says %d points, /metrics says %d", r.d.recovered.points, got)
		r.ops.check(r.d.recovered.series == r.w.series, "recovered %d series, want %d", r.d.recovered.series, r.w.series)
		for _, i := range r.sampled {
			var s seriesJSON
			if err := r.api.getJSON("/api/v1/series?"+seriesQuery(r.g.series[i].id), &s); err != nil {
				r.ops.op(err)
				continue
			}
			// An exact prefix of what was acked: every full block, nothing else.
			want := r.acked(i) / blockPoints * blockPoints
			r.ops.check(int(s.Appends) == want, "series %s: recovered %d samples, want the %d sealed of %d acked", r.g.series[i].id, s.Appends, want, r.acked(i))
			r.verifyTail(i, int(s.Appends))
		}
		replayed += got
		replaySeconds += r.d.recovered.took.Seconds()
		walErrors += after["nyquistd_wal_errors_total"]
	}
	r.ops.op(r.d.stderrErr())
	r.api.close()
	r.d.kill()

	r.layer["recovery_points_per_s"] = float64(replayed) / took
	r.layer["bench.recover_s"] = took
	r.layer["wal.replay_points"] = float64(replayed)
	r.layer["wal.replay_s"] = replaySeconds
	r.layer["wal.errors"] = walErrors
	return nil
}

// segments runs S0 to S4 and fills r.e2e and r.layer.
func (r *run) segments() error {
	for _, seg := range []struct {
		name string
		fn   func() error
	}{
		{"S0 setup", r.setup},
		{"S1 ingest", r.ingest},
		{"S2 checkpoint", r.checkpoint},
		{"S3 query", r.query},
		{"S4 recover", r.recoverSegment},
	} {
		begin := time.Now()
		if err := seg.fn(); err != nil {
			return fmt.Errorf("%s: %w", seg.name, err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s %s done in %.2fs\n", r.w.name, seg.name, time.Since(begin).Seconds())
	}
	return nil
}
