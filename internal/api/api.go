// Package api is the serving surface of the monitoring toolkit: the
// HTTP handlers behind cmd/nyquistd. It turns the in-process pipeline —
// sharded compressed storage (internal/tsdb) plus
// estimate-on-ingest (monitor.IngestEstimator) — into a network service
// external pollers can push telemetry into and query reconstructions,
// estimates and operator advice back out of.
//
// Endpoints (all JSON; see docs/API.md for schemas and curl examples):
//
//	POST /api/v1/ingest    batch ingest, one JSON object per line
//	GET  /api/v1/query     tier-stitched range read with a point budget;
//	                       ?match= fans one request across a series family,
//	                       ?reconstruct=&step= resamples server-side onto a
//	                       uniform grid (see reconstruct.go)
//	GET  /api/v1/estimate  live Nyquist estimate + poll advice for a series
//	GET  /api/v1/series    stored series inventory (retention detail per id)
//	GET  /api/v1/stats     whole-store operator stats
//	GET  /healthz          liveness (the process is up)
//	GET  /readyz           readiness (WAL replay finished; safe to send traffic)
//	GET  /metrics          Prometheus text exposition (internal/obs)
//
// Every ingested point lands in the store and feeds the series' live
// estimator; clean estimates retune the series' retention tiers, so the
// paper's estimate→retain loop closes for traffic the server never
// polled itself. Handlers are safe for concurrent use and stateless
// beyond the store/estimator pair, so one Server can sit behind any
// net/http server or mux.
//
// The server observes itself: every request passes the middleware chain
// in middleware.go (request ID → per-route metrics/logging → panic
// recovery), the full nyquistd_* metric inventory lives in metrics.go,
// and the optional self-scrape loop (selfscrape.go) feeds those metrics
// back into the server's own store as ordinary series.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/series"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// Store is the backing store. Nil selects DefaultStore.
	Store *tsdb.DB
	// Estimator is the estimate-on-ingest hook. Nil builds one over
	// Store with the hook's defaults; pass an existing estimator when it
	// was already wired elsewhere (the durability layer restores state
	// into it before the server starts).
	Estimator *monitor.IngestEstimator
	// MaxBodyBytes bounds an ingest request body; zero selects 8 MiB.
	MaxBodyBytes int64
	// Logger receives structured request/error logs. Nil discards —
	// embedders and benchmarks stay quiet by default; cmd/nyquistd
	// passes a real handler.
	Logger *slog.Logger
	// SlowQuery is the request-latency threshold above which a request
	// is logged at Warn with its query. Zero selects 1s; negative
	// disables slow logging.
	SlowQuery time.Duration
}

// The query surface's fixed limits.
const (
	// maxQueryPoints caps (and defaults) a query's point budget. Clients
	// asking for more are thinned to this (the response carries
	// "clamped": true when that happens).
	maxQueryPoints = 10000
	// maxQuerySeries caps how many series one ?match= query may answer.
	// Extra matches are cut deterministically (smallest ids win) and
	// reported via "truncated": true.
	maxQuerySeries = 512
)

// DefaultStore returns the serving store at nyquistd's defaults: 16
// shards and 128-entry blocks.
func DefaultStore() *tsdb.DB { return ServingStore(16, 128) }

// ServingStore returns the serving store with the given shard count and
// block length: 4096-point raw stores and two min/max/mean tiers of 1024
// buckets. The store is strict-append: a point it refuses (out of order, or a timestamp
// outside the accepted range) is reported as rejected, never as accepted —
// the contract the write-ahead log's replay also relies on.
func ServingStore(shards, compressBlock int) *tsdb.DB {
	return tsdb.New(tsdb.Config{
		Shards: shards,
		Retention: tsdb.RetentionConfig{
			RawCapacity:   4096,
			TierCapacity:  1024,
			Tiers:         2,
			CompressBlock: compressBlock,
		},
	})
}

// Server holds the serving state: the store, the estimate-on-ingest
// hook, and the HTTP plumbing around them.
type Server struct {
	cfg    Config
	store  *tsdb.DB
	ingest *monitor.IngestEstimator
	start  time.Time

	metrics   *serverMetrics
	logger    *slog.Logger
	slowQuery time.Duration
	reqSeq    atomic.Int64

	// interned is the cross-request series-id intern table (see
	// ingest.go): the first sighting of a series name materializes the
	// string; every later batch — HTTP or bulk lane — resolves it with an
	// allocation-free lookup.
	interned interner

	// ready gates the data endpoints: false while the WAL replays into
	// the store (the listener is already up so probes and /metrics can
	// watch recovery), true once traffic is safe.
	ready atomic.Bool
	// walp is the durability layer, attached after replay via
	// SetDurable; nil on memory-only servers. Atomic because metric
	// gathers and handlers read it while startup writes it.
	walp atomic.Pointer[wal.Durable]

	// bulkFrameTimeout is bulkFrameDeadline, a field only so the slow-peer
	// test need not wait the production figure out.
	bulkFrameTimeout time.Duration
}

// NewServer returns a Server over cfg. The server starts ready; a boot
// sequence that replays a WAL after the listener is up should call
// SetReady(false) first and SetReady(true) when replay finishes.
func NewServer(cfg Config) *Server {
	if cfg.Store == nil {
		cfg.Store = DefaultStore()
	}
	if cfg.Estimator == nil {
		cfg.Estimator = monitor.NewIngestEstimator(cfg.Store, monitor.IngestConfig{})
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	if cfg.SlowQuery == 0 {
		cfg.SlowQuery = time.Second
	}
	s := &Server{
		cfg:       cfg,
		store:     cfg.Store,
		ingest:    cfg.Estimator,
		start:     time.Now(),
		logger:    cfg.Logger,
		slowQuery: cfg.SlowQuery,

		bulkFrameTimeout: bulkFrameDeadline,
	}
	s.interned.m = make(map[string]string)
	s.metrics = newServerMetrics(obs.NewRegistry(), s.store, s.ingest, s.walp.Load, s.start)
	s.ready.Store(true)
	return s
}

// SetReady flips the readiness gate (see Server.ready).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SetDurable attaches the durability layer after boot replay, making
// its stats visible to /api/v1/stats and the nyquistd_wal_* metrics. The
// server never writes to it — sealed blocks reach the log through the
// store's seal hook — so this is reporting-only wiring.
func (s *Server) SetDurable(d *wal.Durable) { s.walp.Store(d) }

// ObserveWALFsync records one group-commit fsync duration — wire it to
// wal.Options.SyncObserver. Safe from the log's commit path: one
// histogram observe, no locks.
func (s *Server) ObserveWALFsync(d time.Duration) {
	s.metrics.walFsync.Observe(d.Seconds())
}

// Handler returns the instrumented route mux: every route passes the
// middleware chain (request ID, in-flight gauge, panic recovery, then
// per-route metrics/logging), and the data endpoints additionally gate
// on readiness. The returned handler is safe for concurrent use.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /api/v1/ingest", s.route("ingest", true, s.handleIngest))
	mux.Handle("GET /api/v1/query", s.route("query", true, s.handleQuery))
	mux.Handle("GET /api/v1/estimate", s.route("estimate", true, s.handleEstimate))
	mux.Handle("GET /api/v1/series", s.route("series", true, s.handleSeries))
	mux.Handle("GET /api/v1/stats", s.route("stats", false, s.handleStats))
	mux.Handle("GET /healthz", s.route("healthz", false, s.handleHealthz))
	mux.Handle("GET /readyz", s.route("readyz", false, s.handleReadyz))
	mux.Handle("GET /metrics", s.route("metrics", false, s.metrics.reg.Handler(func(error) {
		s.metrics.httpWriteErrs.Inc()
	}).ServeHTTP))
	return s.wrap(mux)
}

// writeJSON writes v with status code. An encode/write failure cannot
// be reported to the client (the header is committed), so it is counted
// and logged instead — a silent `_ = enc.Encode` is how response bugs
// hide.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.metrics.httpWriteErrs.Inc()
		s.logger.Warn("response write failed",
			"request_id", RequestIDFrom(r.Context()),
			"path", r.URL.Path,
			"status", code,
			"err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, code int, msg string) {
	s.writeJSON(w, r, code, errorBody{Error: msg})
}

// handleIngest consumes a JSON-lines batch (see IngestLine) through the
// ingest core (ingest.go). Malformed lines are counted and reported, not
// fatal — a telemetry batch with one bad record must not lose the other
// 999 — unless every line fails, which returns 400.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	resp := IngestResponse{}
	// Per-batch tallies, flushed into the registry once at the end: one
	// atomic add per counter per request instead of per line keeps the
	// instrumented hot path within its overhead budget.
	var tally ingestTally
	defer tally.flush(s.metrics)
	// runIngest folds every read failure except the body limit into the
	// response as a rejected line, so a non-nil error here is exactly the
	// 413 contract.
	if err := s.runIngest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), -1, &resp, &tally); err != nil {
		s.writeError(w, r, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d bytes after %d accepted points; split the batch", s.cfg.MaxBodyBytes, resp.Accepted))
		return
	}
	if resp.Accepted == 0 && resp.Rejected > 0 {
		s.writeJSON(w, r, http.StatusBadRequest, resp)
		return
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// ingestTally accumulates one batch's metric deltas locally; flush
// publishes them with a handful of atomic adds.
type ingestTally struct {
	lines, accepted, rejected, estDropped int64
	bytes                                 int64
	fast, fallback                        int64
	rejBadJSON, rejBadShape, rejTooLong   int64
	rejOutOfOrder, rejTimeRange           int64
	rejStoreOther, rejReadError           int64
}

func (t *ingestTally) flush(m *serverMetrics) {
	m.batchLines.Observe(float64(t.lines))
	m.batchBytes.Observe(float64(t.bytes))
	m.ingestAccepted.Add(t.accepted)
	m.ingestRejected.Add(t.rejected)
	m.ingestEstDropped.Add(t.estDropped)
	m.parseFast.Add(t.fast)
	m.parseFallback.Add(t.fallback)
	m.rejBadJSON.Add(t.rejBadJSON)
	m.rejBadShape.Add(t.rejBadShape)
	m.rejTooLong.Add(t.rejTooLong)
	m.rejOutOfOrder.Add(t.rejOutOfOrder)
	m.rejTimeRange.Add(t.rejTimeRange)
	m.rejStoreOther.Add(t.rejStoreOther)
	m.rejReadError.Add(t.rejReadError)
}

// appendReason renders a store rejection as an ingest error reason.
func appendReason(err error) string {
	switch {
	case errors.Is(err, tsdb.ErrOutOfOrder):
		return "out of order: timestamp precedes the series' newest stored sample"
	case errors.Is(err, tsdb.ErrTimeRange):
		return "timestamp outside the storable range (1678-09-21 to 2261-04-11)"
	default:
		//nyquist:allow-alloc reject path: the reason is rendered once per rejected point
		return "store rejected the point: " + err.Error()
	}
}

func allSpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// handleQuery answers a tier-stitched range read: ?series= (one id) or
// ?match= (prefix/glob over the id space), optional from/to (RFC3339 or
// Unix seconds; absent = unbounded), max_points (defaulted and capped
// by maxQueryPoints; a request above the cap is clamped and says so),
// and reconstruct=/step= for server-side resampling onto a uniform grid
// (see reconstruct.go).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("series")
	pattern := q.Get("match")
	switch {
	case id == "" && pattern == "":
		s.writeError(w, r, http.StatusBadRequest, "missing required parameter: series (or match)")
		return
	case id != "" && pattern != "":
		s.writeError(w, r, http.StatusBadRequest, "series and match are mutually exclusive")
		return
	}
	from, err := parseTimeParam(q.Get("from"))
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad from: "+err.Error())
		return
	}
	to, err := parseTimeParam(q.Get("to"))
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad to: "+err.Error())
		return
	}
	// An inverted range is a client bug (swapped parameters, a broken
	// dashboard time picker), not an empty window: answering 200 [] hides
	// it. Reject loudly.
	if !from.IsZero() && !to.IsZero() && from.After(to) {
		s.writeError(w, r, http.StatusBadRequest, "bad range: from after to")
		return
	}
	maxPoints := maxQueryPoints
	clamped := false
	if v := q.Get("max_points"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, r, http.StatusBadRequest, "bad max_points: want a positive integer")
			return
		}
		if n < maxPoints {
			maxPoints = n
		} else if n > maxPoints {
			// The budget silently shrinking under a dashboard that asked
			// for more is how "why is my graph decimated" tickets happen:
			// honor the cap but say so in the response.
			clamped = true
			s.metrics.queryClamped.Inc()
		}
	}
	spec, err := parseReconstruct(q)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if pattern != "" {
		s.handleQueryMatch(w, r, pattern, from, to, maxPoints, clamped, spec)
		return
	}
	t0 := time.Now()
	res, err := s.store.Query(id, from, to, storeBudget(maxPoints, spec))
	s.metrics.querySeconds.ObserveSince(t0)
	if err != nil {
		// Only a genuinely unknown series is a 404. Any other store
		// failure (e.g. a corrupt replayed block surfacing at read
		// time) is a 500: masking it as "unknown series" would hide a
		// durability problem behind an answer that looks routine.
		if errors.Is(err, tsdb.ErrNoSeries) {
			s.writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown series %q", id))
			return
		}
		s.writeError(w, r, http.StatusInternalServerError, fmt.Sprintf("query %q: %v", id, err))
		return
	}
	s.metrics.queryTiers.Observe(float64(len(res.Tiers)))
	if res.Thinned {
		s.metrics.queryThinned.Inc()
	}
	resp, err := s.queryResponse(res, spec, from, maxPoints)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	resp.Clamped = resp.Clamped || clamped
	s.writeJSON(w, r, http.StatusOK, resp)
}

// storeBudget is the point budget handed to the store: none when the
// result is to be reconstructed, because the budget then bounds the grid
// (reconstruct's clamp) and thinning what the grid is interpolated
// through only loses signal.
func storeBudget(maxPoints int, spec reconstructSpec) int {
	if spec.want {
		return 0
	}
	return maxPoints
}

// queryResponse renders one series' result: the stored points as they
// are, or — when spec asks — the grid reconstructed from them within
// budget, annotated with how it was produced.
func (s *Server) queryResponse(res *tsdb.QueryResult, spec reconstructSpec, from time.Time, budget int) (QueryResponse, error) {
	if !spec.want {
		return queryResponseFrom(res, res.Points), nil
	}
	rec, err := reconstruct(res, spec, s.store.NyquistRate(res.ID), from, budget)
	if err != nil {
		return QueryResponse{}, fmt.Errorf("reconstruct %q: %v", res.ID, err)
	}
	s.metrics.reconBanded.Add(int64(rec.banded))
	s.metrics.reconFilled[rec.fill].Add(int64(len(rec.pts) - rec.banded))
	resp := queryResponseFrom(res, rec.pts)
	resp.Reconstruct = rec.mode
	resp.StepSeconds = rec.step.Seconds()
	resp.Clamped = rec.clamped
	return resp, nil
}

// handleQueryMatch is the multi-series fan-in: one request answers every
// series matching the pattern, sharing one point budget. Zero matches is
// a 200 with an empty result set — dashboards poll patterns before the
// fleet reports in, and a 404 would page someone over an empty rack.
func (s *Server) handleQueryMatch(w http.ResponseWriter, r *http.Request, pattern string, from, to time.Time, maxPoints int, clamped bool, spec reconstructSpec) {
	t0 := time.Now()
	mres := s.store.QueryMatch(pattern, from, to, storeBudget(maxPoints, spec), maxQuerySeries)
	s.metrics.querySeconds.ObserveSince(t0)
	s.metrics.queryMatchSeries.Observe(float64(len(mres.Results)))
	resp := MatchResponse{
		Match:     pattern,
		Matches:   mres.Matches,
		Truncated: mres.Truncated,
		Clamped:   clamped,
		Results:   make([]QueryResponse, 0, len(mres.Results)),
	}
	// The per-series reconstruction budget mirrors the store's split of
	// the shared point budget.
	perBudget := maxPoints
	if len(mres.Results) > 0 {
		perBudget = maxPoints / len(mres.Results)
		if perBudget < 1 {
			perBudget = 1
		}
	}
	for _, res := range mres.Results {
		s.metrics.queryTiers.Observe(float64(len(res.Tiers)))
		if res.Thinned {
			s.metrics.queryThinned.Inc()
		}
		qr, err := s.queryResponse(res, spec, from, perBudget)
		if err != nil {
			s.writeError(w, r, http.StatusInternalServerError, err.Error())
			return
		}
		resp.Clamped = resp.Clamped || qr.Clamped
		resp.Results = append(resp.Results, qr)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// handleEstimate answers the live per-series estimate and poll advice:
// ?series= (required).
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("series")
	if id == "" {
		s.writeError(w, r, http.StatusBadRequest, "missing required parameter: series")
		return
	}
	adv, ok := s.ingest.Advice(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Sprintf("series %q was never ingested", id))
		return
	}
	s.writeJSON(w, r, http.StatusOK, estimateResponseFrom(adv, s.store.NyquistRate(id)))
}

// handleSeries lists stored series; ?series= narrows to one id with
// full retention detail.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("series"); id != "" {
		st, err := s.store.SeriesStats(id)
		if err != nil {
			if errors.Is(err, tsdb.ErrNoSeries) {
				s.writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown series %q", id))
				return
			}
			s.writeError(w, r, http.StatusInternalServerError, fmt.Sprintf("series %q: %v", id, err))
			return
		}
		s.writeJSON(w, r, http.StatusOK, seriesEntryFrom(*st))
		return
	}
	snap := s.store.Snapshot()
	resp := SeriesResponse{Series: make([]SeriesEntry, 0, len(snap))}
	for _, st := range snap {
		resp.Series = append(resp.Series, seriesEntryFrom(st))
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// handleStats reports whole-store operator stats, including estimator
// cardinality accounting and (when durability is enabled) the WAL's
// state.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var walStats *wal.Stats
	if d := s.walp.Load(); d != nil {
		st := d.Stats()
		walStats = &st
	}
	s.writeJSON(w, r, http.StatusOK, statsResponseFrom(s.store.Stats(), s.ingest, walStats, time.Since(s.start)))
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It never gates on readiness — an orchestrator that killed a replaying
// process for being "unhealthy" would turn every long recovery into a
// crash loop.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is readiness: 200 once WAL replay finished and the data
// endpoints accept traffic, 503 before.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.writeJSON(w, r, http.StatusServiceUnavailable, map[string]any{
			"status": "starting",
			"reason": "WAL replay in progress",
		})
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"status":         "ready",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// parseTimeParam accepts RFC3339(Nano) timestamps or Unix seconds
// (fractional allowed); empty means unbounded (zero time).
func parseTimeParam(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
		return t, nil
	}
	if t, err := timeFromUnixSeconds(v); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("%q is neither RFC3339 nor Unix seconds", v)
}

var errPointShape = errors.New("want {\"series\": string, \"ts\": RFC3339 string or Unix seconds, \"value\": number}")

// point validates an ingest line into a storable sample.
func (l *IngestLine) point() (series.Point, error) {
	if l.Series == "" {
		return series.Point{}, fmt.Errorf("missing series: %w", errPointShape)
	}
	if l.Value == nil {
		return series.Point{}, fmt.Errorf("missing value: %w", errPointShape)
	}
	raw := []byte(l.TS)
	if len(raw) == 0 || string(raw) == "null" {
		return series.Point{}, fmt.Errorf("missing ts: %w", errPointShape)
	}
	var (
		t   time.Time
		err error
	)
	if raw[0] == '"' {
		var s string
		if json.Unmarshal(raw, &s) != nil {
			return series.Point{}, fmt.Errorf("bad ts %s: %w", raw, errPointShape)
		}
		t, err = time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return series.Point{}, fmt.Errorf("bad ts %q: %w", s, errPointShape)
		}
	} else {
		t, err = timeFromUnixSeconds(string(raw))
		if err != nil {
			return series.Point{}, fmt.Errorf("bad ts %s: %v (%w)", raw, err, errPointShape)
		}
	}
	return series.Point{Time: t, Value: *l.Value}, nil
}

// timeFromUnixSeconds parses a decimal Unix-seconds literal exactly:
// the integer and fractional digits convert separately, so second- and
// millisecond-precision wire timestamps never pick up the ~100 ns noise
// a float64 epoch conversion would add (which would poison the store's
// delta-of-delta compression). Exponent forms fall back to float64 with
// that (documented) precision loss.
func timeFromUnixSeconds(s string) (time.Time, error) {
	if strings.ContainsAny(s, "eE") {
		sec, err := strconv.ParseFloat(s, 64)
		const maxAbs = float64(1<<63-1) / 1e9
		if err != nil || sec != sec || sec < -maxAbs || sec > maxAbs {
			return time.Time{}, errUnixSeconds(s)
		}
		whole := int64(sec)
		return time.Unix(whole, int64((sec-float64(whole))*1e9)), nil
	}
	digits := s
	neg := false
	if strings.HasPrefix(digits, "-") {
		neg = true
		digits = digits[1:]
	}
	intPart, frac, _ := strings.Cut(digits, ".")
	if intPart == "" {
		if frac == "" {
			// "-", "." and "-." are not timestamps, not epoch 0.
			return time.Time{}, errUnixSeconds(s)
		}
		intPart = "0"
	}
	// Unsigned parses: the sign was already stripped, and ParseInt would
	// accept a second one ("--1").
	usec, err := strconv.ParseUint(intPart, 10, 63)
	if err != nil {
		return time.Time{}, errUnixSeconds(s)
	}
	sec := int64(usec)
	var ns int64
	for i := 0; i < len(frac); i++ {
		c := frac[i]
		if c < '0' || c > '9' {
			return time.Time{}, errUnixSeconds(s)
		}
		if i < 9 { // sub-nanosecond digits are checked, then truncate
			ns = ns*10 + int64(c-'0')
		}
	}
	for i := len(frac); i < 9; i++ {
		ns *= 10
	}
	if neg {
		sec, ns = -sec, -ns
	}
	return time.Unix(sec, ns), nil
}

// errUnixSeconds is timeFromUnixSeconds' one error, built off the fast path.
func errUnixSeconds(s string) error {
	//nyquist:allow-alloc error path: a malformed timestamp bails the line off the fast path
	return fmt.Errorf("%q is not a representable Unix-seconds timestamp", s)
}
