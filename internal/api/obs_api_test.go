package api

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestMetricsEndpoint drives real traffic through the server and then
// checks GET /metrics: right content type, every required family
// present, and request and reconstruction accounting that matches the
// traffic sent.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	lines := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		lines = append(lines, fmt.Sprintf(`{"series":"m.cpu","ts":%d,"value":%.6f}`,
			apiStart.Add(time.Duration(i)*diurnalStep).Unix(), diurnalValue(i)))
	}
	postLines(t, ts.URL, lines)
	resp, err := http.Get(ts.URL + "/api/v1/query?series=m.cpu&reconstruct=linear&step=675")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if rid := mresp.Header.Get("X-Request-Id"); rid == "" {
		t.Fatal("/metrics response missing X-Request-Id")
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// m.cpu's interval locked at 675 s; its newest point is stale once the
	// daemon's clock is 4 intervals past it.
	stale := 0
	if time.Since(apiStart.Add(63*diurnalStep)) > 4*diurnalStep {
		stale = 1
	}
	for _, want := range []string{
		`nyquistd_http_requests_total{handler="ingest",code="2xx"} 1`,
		`nyquistd_http_requests_total{handler="query",code="2xx"} 1`,
		`nyquistd_ingest_points_total{result="accepted"} 64`,
		`nyquistd_ingest_parse_total{path="fast"} 64`,
		"nyquistd_tsdb_appends_total 64",
		"nyquistd_tsdb_series 1",
		"nyquistd_estimator_series 1",
		"# TYPE nyquistd_estimator_state_bytes gauge",
		"# TYPE nyquistd_estimator_retunes_total counter",
		"# TYPE nyquistd_estimator_held_refreshes_total counter",
		fmt.Sprintf("nyquistd_series_stale %d", stale),
		// The window is not warm, so the 64-point grid is linear throughout.
		`nyquistd_query_reconstruct_points_total{method="linear"} 64`,
		`nyquistd_query_reconstruct_points_total{method="bandlimited"} 0`,
		"nyquistd_wal_enabled 0",
		"nyquistd_up 1",
		"# TYPE nyquistd_http_request_seconds histogram",
		"# TYPE nyquistd_query_seconds histogram",
		"# TYPE nyquistd_wal_fsync_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i <= 0 || i == len(line)-1 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	// The heap family splits what the runtime holds for objects into
	// live objects and the span space beside them that holds none.
	for _, class := range []string{"objects", "unused"} {
		v := -1.0
		prefix := `nyquistd_heap_bytes{class="` + class + `"} `
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				fmt.Sscan(rest, &v)
			}
		}
		if v < 0 || class == "objects" && v == 0 {
			t.Errorf("/metrics heap class %s = %v, want a byte count (objects > 0)", class, v)
		}
	}
}

// TestReadinessGate pins the liveness/readiness split: while not ready
// the data endpoints 503 but /healthz and /metrics keep answering, and
// /readyz flips with the gate.
func TestReadinessGate(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetReady(false)

	status := func(method, path, body string) int {
		t.Helper()
		var (
			resp *http.Response
			err  error
		)
		if method == http.MethodPost {
			resp, err = http.Post(ts.URL+path, "application/x-ndjson", strings.NewReader(body))
		} else {
			resp, err = http.Get(ts.URL + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(http.MethodGet, "/readyz", ""); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while starting: HTTP %d, want 503", got)
	}
	if got := status(http.MethodPost, "/api/v1/ingest", `{"series":"x","ts":1,"value":2}`); got != http.StatusServiceUnavailable {
		t.Fatalf("ingest while starting: HTTP %d, want 503", got)
	}
	if got := status(http.MethodGet, "/api/v1/query?series=x", ""); got != http.StatusServiceUnavailable {
		t.Fatalf("query while starting: HTTP %d, want 503", got)
	}
	if got := status(http.MethodGet, "/healthz", ""); got != http.StatusOK {
		t.Fatalf("/healthz while starting: HTTP %d, want 200 (liveness must not gate)", got)
	}
	if got := status(http.MethodGet, "/metrics", ""); got != http.StatusOK {
		t.Fatalf("/metrics while starting: HTTP %d, want 200", got)
	}
	if st := srv.store.Stats(); st.Appends != 0 {
		t.Fatalf("store received %d appends through a closed gate", st.Appends)
	}

	srv.SetReady(true)
	if got := status(http.MethodGet, "/readyz", ""); got != http.StatusOK {
		t.Fatalf("/readyz when ready: HTTP %d, want 200", got)
	}
	if got := status(http.MethodPost, "/api/v1/ingest", `{"series":"x","ts":1,"value":2}`); got != http.StatusOK {
		t.Fatalf("ingest when ready: HTTP %d, want 200", got)
	}
}

// TestPanicRecovery pins the recovery middleware: a handler panic
// becomes a counted, logged 500 — and http.ErrAbortHandler passes
// through untouched, as net/http requires.
func TestPanicRecovery(t *testing.T) {
	srv := NewServer(Config{})
	h := srv.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: HTTP %d, want 500", rec.Code)
	}
	if got := srv.metrics.httpPanics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	if body := rec.Body.String(); !strings.Contains(body, "internal error") {
		t.Fatalf("panic response body = %q", body)
	}

	abort := srv.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Fatalf("ErrAbortHandler was swallowed (recovered %v)", p)
		}
		if got := srv.metrics.httpPanics.Value(); got != 1 {
			t.Fatalf("ErrAbortHandler counted as a panic (counter = %d)", got)
		}
	}()
	abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

// failingWriter fails every write — the "client hung up mid-response"
// shape.
type failingWriter struct{ header http.Header }

func (f *failingWriter) Header() http.Header {
	if f.header == nil {
		f.header = make(http.Header)
	}
	return f.header
}
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestWriteJSONCountsFailures pins satellite (f): an encode/write
// failure is no longer silent — it lands in the write-errors counter.
func TestWriteJSONCountsFailures(t *testing.T) {
	srv := NewServer(Config{})
	req := httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil)
	srv.writeJSON(&failingWriter{}, req, http.StatusOK, map[string]string{"a": "b"})
	if got := srv.metrics.httpWriteErrs.Value(); got != 1 {
		t.Fatalf("write-errors counter = %d, want 1", got)
	}
}

// TestSelfScrape pins the tentpole's close: a scrape pass lands the
// server's own metrics in the server's own store as ordinary series,
// queryable over the public API, with histogram buckets excluded.
func TestSelfScrape(t *testing.T) {
	srv, ts := newTestServer(t)
	postLines(t, ts.URL, []string{fmt.Sprintf(`{"series":"m.cpu","ts":%d,"value":1}`, apiStart.Unix())})

	sc := srv.NewSelfScraper(time.Hour) // manual ticks only
	defer sc.Stop()
	landed, rejected := sc.ScrapeOnce()
	if landed == 0 {
		t.Fatal("self-scrape landed no samples")
	}
	if rejected != 0 {
		t.Fatalf("self-scrape rejected %d samples on first pass", rejected)
	}
	// A second pass must append a later point to the same series.
	time.Sleep(2 * time.Millisecond)
	sc.ScrapeOnce()

	res, err := srv.store.Query("nyquistd_up", time.Time{}, time.Time{}, 0)
	if err != nil {
		t.Fatalf("query nyquistd_up from the store: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("nyquistd_up has %d points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Value != 1 {
			t.Fatalf("nyquistd_up point = %v, want 1", p.Value)
		}
	}

	// The labeled ingest counter lands under its full exposition ID.
	id := `nyquistd_ingest_points_total{result="accepted"}`
	if _, err := srv.store.Query(id, time.Time{}, time.Time{}, 0); err != nil {
		t.Fatalf("query %s from the store: %v", id, err)
	}

	// No histogram buckets: cardinality stays bounded.
	for _, sid := range srv.store.IDs() {
		if strings.Contains(sid, "_bucket{") {
			t.Fatalf("self-scrape ingested a histogram bucket series: %s", sid)
		}
	}

	// And the self-view is reachable over the public query API.
	var out QueryResponse
	if code := getJSON(t, ts.URL+"/api/v1/query?series=nyquistd_up", &out); code != http.StatusOK {
		t.Fatalf("HTTP query for nyquistd_up: %d", code)
	}
	if len(out.Points) != 2 {
		t.Fatalf("HTTP query for nyquistd_up returned %d points, want 2", len(out.Points))
	}

	// The scraper accounts for itself.
	if runs := srv.metrics.reg.Gather(); runs != nil {
		found := false
		for _, s := range runs {
			if s.Name == "nyquistd_selfscrape_runs_total" && s.Value == 2 {
				found = true
			}
		}
		if !found {
			t.Fatal("nyquistd_selfscrape_runs_total != 2 after two passes")
		}
	}
}

// TestSlowRequestThresholdDefaults pins the Config defaulting: zero
// selects 1s, negative disables.
func TestSlowRequestThresholdDefaults(t *testing.T) {
	if srv := NewServer(Config{}); srv.slowQuery != time.Second {
		t.Fatalf("default slow-query = %v, want 1s", srv.slowQuery)
	}
	if srv := NewServer(Config{SlowQuery: -1}); srv.slowQuery != -1 {
		t.Fatalf("negative slow-query = %v, want -1 (disabled)", srv.slowQuery)
	}
}

// TestIngestBodyBytesCountedOnce pins the body-byte accounting contract
// after the batched-ingest rewrite: the route middleware records
// nyquistd_http_request_body_bytes_total exactly once per request from
// Content-Length, and the ingest core records the same byte count into
// the nyquistd_ingest_batch_bytes histogram exactly once per batch. The
// old per-line handler summed read-loop bytes into the HTTP counter on
// top of the middleware's Content-Length add, double-counting every
// ingest body; this test fails if either layer ever grows a second
// recording site.
func TestIngestBodyBytesCountedOnce(t *testing.T) {
	srv, ts := newTestServer(t)
	body := `{"series":"bytes/a","ts":1753500000,"value":1}` + "\n" +
		`{"series":"bytes/a","ts":1753500001,"value":2}` + "\n"
	resp, err := http.Post(ts.URL+"/api/v1/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d", resp.StatusCode)
	}

	if v := srv.metrics.httpBodyBytes.With("ingest").Value(); v != int64(len(body)) {
		t.Fatalf("http_request_body_bytes{ingest} = %d after one %d-byte body, want exactly %d (double-count regression)",
			v, len(body), len(body))
	}
	if n := srv.metrics.batchBytes.Count(); n != 1 {
		t.Fatalf("ingest_batch_bytes count = %d after one batch, want 1", n)
	}
	if s := srv.metrics.batchBytes.Sum(); s != float64(len(body)) {
		t.Fatalf("ingest_batch_bytes sum = %v after one %d-byte body, want exactly %d (double-count regression)",
			s, len(body), len(body))
	}

	// A second identical body must advance both by exactly one body's
	// worth — linear in requests, not quadratic.
	resp, err = http.Post(ts.URL+"/api/v1/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if v := srv.metrics.httpBodyBytes.With("ingest").Value(); v != int64(2*len(body)) {
		t.Fatalf("http_request_body_bytes{ingest} = %d after two bodies, want %d", v, 2*len(body))
	}
	if s := srv.metrics.batchBytes.Sum(); s != float64(2*len(body)) {
		t.Fatalf("ingest_batch_bytes sum = %v after two bodies, want %d", s, 2*len(body))
	}
}
