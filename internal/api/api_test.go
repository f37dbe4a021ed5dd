package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

var apiStart = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// diurnalLine formats one ingest line of the synthetic diurnal series:
// the daily fundamental plus a 4x harmonic (true Nyquist = 8/day), on a
// 675 s grid = 128 polls/day, so the 256-sample window holds exactly two
// days and both tones sit on analysis bins.
const (
	diurnalF0      = 1.0 / 86400
	diurnalTop     = 4 * diurnalF0
	diurnalNyquist = 2 * diurnalTop
	diurnalStep    = 675 * time.Second
)

func diurnalValue(i int) float64 {
	ts := float64(i) * diurnalStep.Seconds()
	v := 40 + 8*math.Sin(2*math.Pi*diurnalF0*ts) + 6.4*math.Sin(2*math.Pi*diurnalTop*ts+1)
	// Sensor quantization: a quarter-unit step over a ~29-unit swing is
	// a 7-bit gauge (0.25 survives %.6f wire formatting exactly).
	// Production readings are quantized, and it is what makes the XOR
	// chain bite.
	return math.Round(v*4) / 4
}

// ingestServer returns a Server over the serving-default store whose
// estimate-on-ingest hook runs ic.
func ingestServer(ic monitor.IngestConfig) *Server {
	store := DefaultStore()
	return NewServer(Config{Store: store, Estimator: monitor.NewIngestEstimator(store, ic)})
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := ingestServer(monitor.IngestConfig{WindowSamples: 256, EmitEvery: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postLines(t *testing.T, url string, lines []string) IngestResponse {
	t.Helper()
	resp, err := http.Post(url+"/api/v1/ingest", "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: HTTP %d (%+v)", resp.StatusCode, out)
	}
	return out
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestServerEndToEnd is the serving acceptance path: a synthetic
// known-Nyquist diurnal series ingested over HTTP in batches must yield
// a warm estimate near ground truth, retuned retention, a stitched
// query, and sane stats — the whole estimate→retain loop across the
// network boundary.
func TestServerEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t)
	const id = "dc1/rack4/switch2:if7/octets"
	const n = 1024
	var batch []string
	for i := 0; i < n; i++ {
		when := apiStart.Add(time.Duration(i) * diurnalStep)
		// Alternate the two accepted timestamp encodings.
		tsField := fmt.Sprintf("%q", when.Format(time.RFC3339Nano))
		if i%2 == 1 {
			tsField = fmt.Sprintf("%.3f", float64(when.UnixNano())/1e9)
		}
		batch = append(batch, fmt.Sprintf(`{"series":%q,"ts":%s,"value":%.6f}`, id, tsField, diurnalValue(i)))
		if len(batch) == 256 || i == n-1 {
			out := postLines(t, ts.URL, batch)
			if out.Rejected != 0 {
				t.Fatalf("batch rejected lines: %+v", out)
			}
			batch = batch[:0]
		}
	}

	var est EstimateResponse
	if code := getJSON(t, ts.URL+"/api/v1/estimate?series="+id, &est); code != http.StatusOK {
		t.Fatalf("estimate: HTTP %d", code)
	}
	if !est.Warm {
		t.Fatalf("estimate not warm after %d samples: %+v", n, est)
	}
	if math.Abs(est.IntervalSeconds-diurnalStep.Seconds()) > 1 {
		t.Fatalf("locked interval %.1f s, want %.0f s", est.IntervalSeconds, diurnalStep.Seconds())
	}
	if est.Aliased {
		t.Fatalf("clean diurnal series flagged aliased: %+v", est)
	}
	// The diurnal scenario's quality bar is 35% of swing; hold the
	// estimate itself to a 20% relative band — tighter than the bar.
	if rel := math.Abs(est.NyquistHz-diurnalNyquist) / diurnalNyquist; rel > 0.2 {
		t.Fatalf("estimate %.8f Hz, ground truth %.8f Hz: off by %.0f%%", est.NyquistHz, diurnalNyquist, 100*rel)
	}
	if est.RetentionNyquistHz == 0 {
		t.Fatal("retention was never retuned from the ingest estimates")
	}
	// Why this rate: retention is held at or above the newest estimate,
	// and the wait toward lowering it is visible (window 256 / emit 8).
	if est.RetentionNyquistHz < est.NyquistHz || est.HoldTurnover != 32 || est.HeldRefreshes < 0 || est.HeldRefreshes >= 32 {
		t.Fatalf("retention %v Hz over estimate %v Hz, %d of %d held refreshes", est.RetentionNyquistHz, est.NyquistHz, est.HeldRefreshes, est.HoldTurnover)
	}
	if (est.RetentionNyquistHz > est.NyquistHz) != (est.HeldRefreshes > 0) {
		t.Fatalf("retention %v Hz, estimate %v Hz, held refreshes %d: a wait is open exactly while retention is above the estimate", est.RetentionNyquistHz, est.NyquistHz, est.HeldRefreshes)
	}
	if est.Samples != n {
		t.Fatalf("samples %d, want %d", est.Samples, n)
	}

	// Query the middle third with a budget; the result must be ordered,
	// in-window and within budget.
	from := apiStart.Add(n / 3 * diurnalStep)
	to := apiStart.Add(2 * n / 3 * diurnalStep)
	var qr QueryResponse
	u := fmt.Sprintf("%s/api/v1/query?series=%s&from=%s&to=%s&max_points=200",
		ts.URL, id, from.Format(time.RFC3339), to.Format(time.RFC3339))
	if code := getJSON(t, u, &qr); code != http.StatusOK {
		t.Fatalf("query: HTTP %d", code)
	}
	if len(qr.Points) == 0 || len(qr.Points) > 200 {
		t.Fatalf("query returned %d points, want 1..200", len(qr.Points))
	}
	prev := ""
	for _, p := range qr.Points {
		if p.TS < prev {
			t.Fatalf("unordered points: %s after %s", p.TS, prev)
		}
		prev = p.TS
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if st.Series != 1 || st.EstimatedSeries != 1 || st.Appends != n {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st.CompressedEntries == 0 || st.BytesPerPoint <= 0 {
		t.Fatalf("serving store is not compressing: %+v", st)
	}
	if st.BytesPerPoint > 2 {
		t.Fatalf("bytes/point %.2f on the quantized diurnal stream, want <= 2", st.BytesPerPoint)
	}
	if st.RawCompressedEntries == 0 ||
		st.RawCompressedBytes+st.TierCompressedBytes != st.CompressedBytes ||
		st.RawCompressedEntries+st.TierCompressedEntries != st.CompressedEntries {
		t.Fatalf("raw/tier split does not add up to the totals: %+v", st)
	}
	if want := srv.store.Stats().OpenTailBytes; st.OpenTailBytes == 0 || st.OpenTailBytes != want {
		t.Fatalf("open_tail_bytes = %d, the store reports %d", st.OpenTailBytes, want)
	}

	// The store really holds the data (not just the estimator).
	if got := srv.store.NyquistRate(id); got == 0 {
		t.Fatal("store retention rate is 0 after clean estimates")
	}
}

// TestServerIngestPartialBatch pins batch robustness: malformed lines
// are rejected with located reasons, the rest land.
func TestServerIngestPartialBatch(t *testing.T) {
	_, ts := newTestServer(t)
	out := postLines(t, ts.URL, []string{
		`{"series":"a","ts":1753500000,"value":1}`,
		`not json at all`,
		`{"series":"","ts":1753500001,"value":2}`,
		`{"series":"a","ts":1753500002}`,
		`{"series":"a","ts":"2026-07-26T00:00:03Z","value":4}`,
		``,
		`{"series":"b","ts":1753500004.5,"value":5}`,
	})
	if out.Accepted != 3 || out.Rejected != 3 || out.Series != 2 {
		t.Fatalf("accepted/rejected/series = %d/%d/%d, want 3/3/2 (%+v)", out.Accepted, out.Rejected, out.Series, out)
	}
	if len(out.Errors) != 3 {
		t.Fatalf("want 3 located errors, got %+v", out.Errors)
	}
	if out.Errors[0].Line != 2 {
		t.Fatalf("first error at line %d, want 2", out.Errors[0].Line)
	}
}

// TestServerIngestAllBad: a fully malformed batch is a client error.
func TestServerIngestAllBad(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/ingest", "application/x-ndjson", strings.NewReader("garbage\nmore garbage"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("all-bad batch: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestServerErrors pins the error statuses: unknown series are 404s,
// malformed parameters 400s, oversized bodies 413s.
func TestServerErrors(t *testing.T) {
	srv := NewServer(Config{MaxBodyBytes: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var e errorBody
	if code := getJSON(t, ts.URL+"/api/v1/query?series=nope", &e); code != http.StatusNotFound {
		t.Fatalf("query unknown series: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/estimate?series=nope", &e); code != http.StatusNotFound {
		t.Fatalf("estimate unknown series: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/query", &e); code != http.StatusBadRequest {
		t.Fatalf("query without series: HTTP %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/query?series=x&from=yesterday", &e); code != http.StatusBadRequest {
		t.Fatalf("query with bad from: HTTP %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/series?series=nope", &e); code != http.StatusNotFound {
		t.Fatalf("series detail for unknown id: HTTP %d, want 404", code)
	}

	long := strings.Repeat(`{"series":"a","ts":1753500000,"value":1}`+"\n", 64)
	resp, err := http.Post(ts.URL+"/api/v1/ingest", "application/x-ndjson", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
}

// TestIngestBodyLimitLandsCompleteLines holds the 413 contract: the body
// is read up to MaxBodyBytes, the complete lines before the limit land,
// the line the limit cuts is dropped, and the error says how many points
// were accepted.
func TestIngestBodyLimitLandsCompleteLines(t *testing.T) {
	srv := NewServer(Config{MaxBodyBytes: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var sb strings.Builder
	for i := range 64 {
		fmt.Fprintf(&sb, "{\"series\":\"cut\",\"ts\":%d,\"value\":%d}\n", 1753500000+i, i)
	}
	resp, err := http.Post(ts.URL+"/api/v1/ingest", "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, %+v, %v; want 413", resp.StatusCode, e, err)
	}
	const whole = 256 / 43 // each line is 43 bytes
	if want := fmt.Sprintf("after %d accepted points", whole); !strings.Contains(e.Error, want) {
		t.Fatalf("error %q does not say %q", e.Error, want)
	}
	st, err := srv.store.SeriesStats("cut")
	if err != nil || st.Appends != whole {
		t.Fatalf("stored %+v, %v; want the %d complete lines before the limit", st, err, whole)
	}
}

// TestServerSeriesInventory checks the list and detail views.
func TestServerSeriesInventory(t *testing.T) {
	_, ts := newTestServer(t)
	var lines []string
	for i := 0; i < 20; i++ {
		when := apiStart.Add(time.Duration(i) * time.Minute)
		lines = append(lines,
			fmt.Sprintf(`{"series":"a","ts":%q,"value":%d}`, when.Format(time.RFC3339), i),
			fmt.Sprintf(`{"series":"b","ts":%q,"value":%d}`, when.Format(time.RFC3339), -i))
	}
	postLines(t, ts.URL, lines)

	var list SeriesResponse
	if code := getJSON(t, ts.URL+"/api/v1/series", &list); code != http.StatusOK {
		t.Fatalf("series list: HTTP %d", code)
	}
	if len(list.Series) != 2 || list.Series[0].Series != "a" || list.Series[1].Series != "b" {
		t.Fatalf("series list wrong: %+v", list)
	}
	if list.Series[0].Appends != 20 || list.Series[0].RawPoints != 20 {
		t.Fatalf("series a counters wrong: %+v", list.Series[0])
	}

	var one SeriesEntry
	if code := getJSON(t, ts.URL+"/api/v1/series?series=b", &one); code != http.StatusOK {
		t.Fatalf("series detail: HTTP %d", code)
	}
	if one.Series != "b" || one.RawOldest == "" {
		t.Fatalf("series b detail wrong: %+v", one)
	}
}

// TestServerHealthz: liveness must answer without any state.
func TestServerHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var h map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz body: %+v", h)
	}
}

// TestServerDefaultStoreCompresses pins the serving default: the store
// behind a zero-config server seals 128-point blocks over 16 shards.
func TestServerDefaultStoreCompresses(t *testing.T) {
	srv := NewServer(Config{})
	for i := 0; i < 128; i++ {
		if err := srv.store.Append("a", series.Point{Time: time.Unix(int64(i), 0), Value: 1}); err != nil {
			t.Fatal(err)
		}
		if sealed, want := srv.store.Stats().SealedBlocks, int64((i+1)/128); sealed != want {
			t.Fatalf("%d points sealed %d blocks, want %d: the serving block length is 128", i+1, sealed, want)
		}
	}
	if sh := srv.store.Stats().Shards; sh != 16 {
		t.Fatalf("serving default shards %d, want 16", sh)
	}
	// A custom store must be honored untouched.
	custom := tsdb.New(tsdb.Config{Shards: 2})
	if got := NewServer(Config{Store: custom}).store; got != custom {
		t.Fatal("custom store replaced")
	}
}

// TestServerIngestOverlongLine pins the fix for the scanner-truncation
// bug: a single over-limit line is rejected alone; every line after it
// still lands.
func TestServerIngestOverlongLine(t *testing.T) {
	_, ts := newTestServer(t)
	long := `{"series":"a","ts":1753500001,"value":1,"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	out := postLines(t, ts.URL, []string{
		`{"series":"a","ts":1753500000,"value":1}`,
		long,
		`{"series":"a","ts":1753500002,"value":3}`,
		`{"series":"b","ts":1753500003,"value":4}`,
	})
	if out.Accepted != 3 || out.Rejected != 1 || out.Series != 2 {
		t.Fatalf("accepted/rejected/series = %d/%d/%d, want 3/1/2 (%+v)", out.Accepted, out.Rejected, out.Series, out.Errors)
	}
	if len(out.Errors) != 1 || out.Errors[0].Line != 2 || !strings.Contains(out.Errors[0].Reason, "exceeds") {
		t.Fatalf("overlong line not located: %+v", out.Errors)
	}
}

// TestTimeParamRejectsDegenerateLiterals pins the fix for "-"/"."/"-."
// parsing to epoch 0 instead of erroring, and for junk past the ninth
// fractional digit being truncated away before it was validated.
func TestTimeParamRejectsDegenerateLiterals(t *testing.T) {
	for _, bad := range []string{"-", ".", "-.", "--1", "1.2.3", "nan", "1700000000.1234567890abc", "1.123456789-5"} {
		if got, err := parseTimeParam(bad); err == nil {
			t.Fatalf("parseTimeParam(%q) = %v, want error", bad, got)
		}
	}
	for in, want := range map[string]time.Time{
		"1753500000":    time.Unix(1753500000, 0),
		"1753500000.25": time.Unix(1753500000, 250000000),
		"-1.5":          time.Unix(-1, -500000000),
		".5":            time.Unix(0, 500000000),
		"1753500000.":   time.Unix(1753500000, 0),
		"1.1234567899":  time.Unix(1, 123456789),
	} {
		got, err := parseTimeParam(in)
		if err != nil || !got.Equal(want) {
			t.Fatalf("parseTimeParam(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

// TestIngestOutOfOrderAccounting is the regression test for the
// accepted-but-never-landed bug: an out-of-order point must be counted
// as a rejected line (with its line number and reason), must not land in
// the store, and must not feed the estimator.
func TestIngestOutOfOrderAccounting(t *testing.T) {
	srv, ts := newTestServer(t)
	id := "ext/ooo/gauge"
	line := func(i int) string {
		return fmt.Sprintf(`{"series":%q,"ts":%d,"value":%d}`, id, apiStart.Add(time.Duration(i)*time.Second).Unix(), i)
	}
	out := postLines(t, ts.URL, []string{line(0), line(1), line(2)})
	if out.Accepted != 3 || out.Rejected != 0 {
		t.Fatalf("seed batch: %+v", out)
	}

	// Line 2 of this batch rewinds the clock; lines 1 and 3 are fine.
	out = postLines(t, ts.URL, []string{line(3), line(1), line(4)})
	if out.Accepted != 2 || out.Rejected != 1 {
		t.Fatalf("out-of-order batch: accepted=%d rejected=%d, want 2/1 (%+v)", out.Accepted, out.Rejected, out)
	}
	if len(out.Errors) != 1 || out.Errors[0].Line != 2 || !strings.Contains(out.Errors[0].Reason, "out of order") {
		t.Fatalf("rejection detail = %+v, want line 2 flagged out of order", out.Errors)
	}

	// The store holds exactly the 5 accepted points.
	res, err := srv.store.Query(id, time.Time{}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("store holds %d points, want 5 (the rejected point must not land)", len(res.Points))
	}
	// The estimator saw only the accepted points.
	adv, ok := srv.ingest.Advice(id)
	if !ok || adv.Samples != 5 {
		t.Fatalf("estimator samples = %d (ok=%v), want 5", adv.Samples, ok)
	}

	// A far-future timestamp (outside int64 nanoseconds) is likewise a
	// rejected line, not a stored point.
	out = postLines(t, ts.URL, []string{line(5), fmt.Sprintf(`{"series":%q,"ts":"9999-01-01T00:00:00Z","value":1}`, id)})
	if out.Accepted != 1 || out.Rejected != 1 || !strings.Contains(out.Errors[0].Reason, "storable range") {
		t.Fatalf("time-range batch: %+v", out)
	}
}

// TestQueryErrorStatuses pins the unknown-series vs store-failure
// distinction: only ErrNoSeries maps to 404.
func TestQueryErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	var body map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/query?series=never/written", &body); code != http.StatusNotFound {
		t.Fatalf("unknown series: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/series?series=never/written", &body); code != http.StatusNotFound {
		t.Fatalf("unknown series detail: HTTP %d, want 404", code)
	}
}

// TestIngestEstimatorCapSurfaced pins the MaxSeries cap on the serving
// path: overflow series are stored but flagged estimator_dropped, and
// /api/v1/stats reports the cap and the rejected count.
func TestIngestEstimatorCapSurfaced(t *testing.T) {
	srv := ingestServer(monitor.IngestConfig{WindowSamples: 64, MaxSeries: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var lines []string
	for s := 0; s < 4; s++ {
		for i := 0; i < 3; i++ {
			lines = append(lines, fmt.Sprintf(`{"series":"card/%d","ts":%d,"value":1}`,
				s, apiStart.Add(time.Duration(i)*time.Second).Unix()))
		}
	}
	out := postLines(t, ts.URL, lines)
	if out.Accepted != 12 {
		t.Fatalf("accepted %d, want 12 (capped series still store)", out.Accepted)
	}
	if out.EstimatorDropped != 6 {
		t.Fatalf("estimator_dropped = %d, want 6 (two overflow series x three points)", out.EstimatorDropped)
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.EstimatorMaxSeries != 2 || stats.EstimatedSeries != 2 || stats.EstimatorRejectedPoints != 6 {
		t.Fatalf("stats cap fields = max %d, estimated %d, rejected %d; want 2/2/6",
			stats.EstimatorMaxSeries, stats.EstimatedSeries, stats.EstimatorRejectedPoints)
	}
	if stats.Series != 4 {
		t.Fatalf("stored series = %d, want 4 (the cap bounds the estimator, not storage)", stats.Series)
	}
}

// TestStatsWALSection pins the durability reporting: a WAL-backed server
// surfaces the subsystem in /api/v1/stats.
func TestStatsWALSection(t *testing.T) {
	store := DefaultStore()
	est := monitor.NewIngestEstimator(store, monitor.IngestConfig{WindowSamples: 64})
	d, err := wal.Open(t.TempDir(), store, est, wal.Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := NewServer(Config{Store: store, Estimator: est})
	srv.SetDurable(d)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var lines []string
	for i := 0; i < 300; i++ { // > 2 sealed 128-point blocks
		lines = append(lines, fmt.Sprintf(`{"series":"wal/gauge","ts":%d,"value":%d}`,
			apiStart.Add(time.Duration(i)*time.Second).Unix(), i%7))
	}
	postLines(t, ts.URL, lines)
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if stats.WAL == nil {
		t.Fatal("stats.wal missing on a durable server")
	}
	if stats.WAL.Records < 2 {
		t.Fatalf("wal.records = %d, want the sealed blocks logged", stats.WAL.Records)
	}
	if stats.WAL.Segments < 1 || stats.WAL.WALBytes == 0 {
		t.Fatalf("wal segment accounting = %+v", stats.WAL)
	}
}

// TestFastLineMatchesJSON differentially checks the ingest fast path
// against the full encoding/json route: every line the fast parser
// accepts must produce exactly the point the slow path produces, and
// every line it bails on must still work (or fail) through the slow
// path — the fast path is an optimization, never a second dialect.
func TestFastLineMatchesJSON(t *testing.T) {
	lines := []string{
		`{"series":"a/b","ts":1753600000,"value":1.5}`,
		`{"series":"a/b","ts":1753600000.25,"value":-3}`,
		`{"series":"a/b","ts":"2026-07-01T00:00:00Z","value":42}`,
		`{"series":"a/b","ts":"2026-07-01T00:00:00.123456789+02:00","value":0.001}`,
		`{"value":7,"ts":1753600000,"series":"reordered"}`,
		`{ "series" : "spaced" , "ts" : 1 , "value" : 2 }`,
		`{"series":"a/b","ts":1.7536e9,"value":1}`,
		`{"series":"escAped","ts":1,"value":1}`,        // escape: must fall back
		`{"series":"a","ts":1,"value":1,"extra":true}`, // unknown key: must fall back
		`{"series":"a","ts":{"nested":1},"value":1}`,   // nested: fall back, slow path rejects
		`{"series":"","ts":1,"value":1}`,               // empty series: rejected either way
		`{"series":"a","ts":"not a time","value":1}`,   // bad ts
		`{"series":"a","ts":1}`,                        // missing value
		`{"series":"dup","ts":1,"ts":2,"value":1}`,     // duplicate key: fall back
		`not json at all`,
		// Number forms Go's parsers take but JSON forbids: the fast path
		// must bail so the slow path rejects the whole line — otherwise
		// the same value's fate would flip on an unrelated detail.
		`{"series":"a","ts":1,"value":+1.5}`,
		`{"series":"a","ts":1,"value":.5}`,
		`{"series":"a","ts":1,"value":5.}`,
		`{"series":"a","ts":1,"value":01}`,
		`{"series":"a","ts":.5,"value":1}`,
		`{"series":"a","ts":01,"value":1}`,
		`{"series":"a","ts":1,"value":1e}`,
		`{"series":"a","ts":1,"value":--1}`,
		"{\"series\":\"ctrl\tchar\",\"ts\":1,\"value\":1}", // raw control byte in string: fall back
	}
	for _, raw := range lines {
		line := []byte(raw)
		var in IngestLine
		jerr := json.Unmarshal(line, &in)
		var slowPoint *struct {
			id string
			t  time.Time
			v  float64
		}
		if jerr == nil {
			if p, perr := in.point(); perr == nil {
				slowPoint = &struct {
					id string
					t  time.Time
					v  float64
				}{in.Series, p.Time, p.Value}
			}
		}
		fl, ok := fastParseLine(line)
		if !ok {
			continue // fast path bailed: the slow path owns the line
		}
		if slowPoint == nil {
			t.Fatalf("fast path accepted %q but the slow path rejects it", raw)
		}
		if string(fl.series) != slowPoint.id || !fl.t.Equal(slowPoint.t) || fl.value != slowPoint.v {
			t.Fatalf("fast path disagrees on %q: (%s, %v, %v) vs (%s, %v, %v)",
				raw, fl.series, fl.t, fl.value, slowPoint.id, slowPoint.t, slowPoint.v)
		}
	}
	// The common shapes must actually take the fast path, or the
	// optimization silently dies.
	for _, raw := range []string{
		`{"series":"a/b","ts":1753600000,"value":1.5}`,
		`{"series":"a/b","ts":"2026-07-01T00:00:00Z","value":42}`,
	} {
		if _, ok := fastParseLine([]byte(raw)); !ok {
			t.Fatalf("fast path bailed on the canonical shape %q", raw)
		}
	}
}
