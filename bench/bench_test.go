package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestFramesAreAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := newGenerator(1, w.series).appendFrameLines(nil, w, 3)
		b := newGenerator(1, w.series).appendFrameLines(nil, w, 3)
		c := newGenerator(2, w.series).appendFrameLines(nil, w, 3)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed rendered two different frames", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 rendered the same frame", w.name)
		}
		if got := bytes.Count(a, []byte("\n")); got != w.frameLines() {
			t.Errorf("%s: frame has %d lines, want %d", w.name, got, w.frameLines())
		}
	}
}

// The seed deals one fixed set of signals to the series: the fleet-wide
// quality metrics must not depend on it, the bytes on the wire must.
func TestSeedDealsTheSameSignals(t *testing.T) {
	w := workloads[0]
	a, b := newRun(w, 1, "", "", nil), newRun(w, 2, "", "", nil)
	if len(a.sampled) != sampledSeries || len(b.sampled) != sampledSeries {
		t.Fatalf("sampled %d and %d series, want %d", len(a.sampled), len(b.sampled), sampledSeries)
	}
	bySignal := map[int]seriesParams{}
	for _, s := range a.g.series {
		bySignal[s.signal] = s
	}
	moved := 0
	for i, s := range b.g.series {
		twin, ok := bySignal[s.signal]
		if !ok || twin.base != s.base || twin.t1 != s.t1 || twin.t2 != s.t2 {
			t.Fatalf("signal %d differs between seeds 1 and 2", s.signal)
		}
		if twin.id != s.id {
			moved++
		}
		if a.g.series[i].id != s.id {
			t.Fatalf("series %d is %s under seed 1 and %s under seed 2", i, a.g.series[i].id, s.id)
		}
	}
	if moved < w.series/2 {
		t.Errorf("only %d of %d signals changed series between seeds 1 and 2", moved, w.series)
	}
	signals := func(r *run) map[int]bool {
		m := map[int]bool{}
		for _, i := range r.sampled {
			m[r.g.series[i].signal] = true
		}
		return m
	}
	sa, sb := signals(a), signals(b)
	for k := range sa {
		if !sb[k] {
			t.Errorf("signal %d is sampled under seed 1 but not under seed 2", k)
		}
	}
}

func TestGeneratorSignalsStayInBand(t *testing.T) {
	g := newGenerator(7, 512)
	ids := map[string]bool{}
	for i := range g.series {
		s := &g.series[i]
		ids[s.id] = true
		for _, f := range []float64{s.t1.freq, s.t2.freq} {
			if f < fLo || f > fHi {
				t.Fatalf("series %d: tone at %g Hz outside [%g, %g]", i, f, fLo, fHi)
			}
		}
		if ny := g.nyquistHz(i); ny > 1 {
			t.Fatalf("series %d: Nyquist rate %g Hz aliases at 1 Hz sampling", i, ny)
		}
		if c := g.centis(i, i); c <= 0 {
			t.Fatalf("series %d: sample %d is %d hundredths, want positive", i, i, c)
		}
	}
	if len(ids) != len(g.series) {
		t.Fatalf("%d distinct ids for %d series", len(ids), len(g.series))
	}
	if got, want := g.rackPattern(35), "dash/rack02/*"; got != want {
		t.Errorf("rackPattern(35) = %q, want %q", got, want)
	}
	// The rendered literal parses to exactly the value the checks compare.
	line := string(g.appendLine(nil, 5, 9))
	var parsed struct {
		Series string  `json:"series"`
		TS     int64   `json:"ts"`
		Value  float64 `json:"value"`
	}
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatalf("line %q: %v", line, err)
	}
	if parsed.Series != g.series[5].id || parsed.TS != epoch+9 || parsed.Value != g.value(5, 9) {
		t.Errorf("line %q parsed to %+v, want series %s ts %d value %v", line, parsed, g.series[5].id, epoch+9, g.value(5, 9))
	}
}

// One frame of every workload, fed to the real handler in process, is
// accepted in full — the wire shape stays on the daemon's fast path.
func TestEveryWorkloadsFrameIsAccepted(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		s, err := newStack("")
		if err != nil {
			t.Fatal(err)
		}
		lines := newGenerator(1, w.series).appendFrameLines(nil, w, 0)
		code, ack, err := s.post(lines)
		if err != nil || code != http.StatusOK || ack.Accepted != w.frameLines() || ack.Rejected != 0 {
			t.Errorf("%s: HTTP %d, %+v, %v; want all %d lines accepted", w.name, code, ack, err, w.frameLines())
		}
	}
}

func TestWorkloadArithmetic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.series%w.frameSeries != 0 || w.preload%w.run != 0 || w.ingest%w.run != 0 || w.series%sampledSeries != 0 || w.series%devicesPerRack != 0 {
			t.Errorf("%s: sizes do not divide evenly", w.name)
		}
		if got := w.frames(w.preload) * w.frameLines(); got != w.preload*w.series {
			t.Errorf("%s: preload frames carry %d points, want %d", w.name, got, w.preload*w.series)
		}
		if (w.preload+w.ingest)%blockPoints != 0 {
			t.Errorf("%s: the checkpoint leaves an unsealed tail, so WAL bytes per point would depend on it", w.name)
		}
		half := w.scaled(frozenSeconds / 2)
		if half.ingest != w.ingest/2 || half.queries != w.queries/2 || half.preload != w.preload {
			t.Errorf("%s: scaled(%d) = ingest %d queries %d preload %d", w.name, frozenSeconds/2, half.ingest, half.queries, half.preload)
		}
	}
	// acked follows the stream position: 8 groups, 3 whole slabs and 5
	// frames of the fourth.
	r := &run{w: workloads[0]}
	r.framesSent = 3*8 + 5
	if got := r.acked(4 * 64); got != 4*64 {
		t.Errorf("acked(group 4) = %d, want %d", got, 4*64)
	}
	if got := r.acked(5 * 64); got != 3*64 {
		t.Errorf("acked(group 5) = %d, want %d", got, 3*64)
	}
}

func TestQuerySpecs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		g := newGenerator(1, w.series)
		newest := int64(epoch + 999)
		a := querySpecs(g, w, 1, 40, newest)
		b := querySpecs(g, w, 1, 40, newest)
		distinct := map[string]bool{}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: query %d differs between two renderings of one seed", w.name, j)
			}
			distinct[a[j].target] = true
			if w.window > 0 && (a[j].to != newest+1 || a[j].to-a[j].from != int64(w.window)) {
				t.Errorf("%s: query %d spans [%d,%d), want the last %d s", w.name, j, a[j].from, a[j].to, w.window)
			}
		}
		want := 40
		if w.targets > 0 {
			want = w.targets
		}
		if len(distinct) != want {
			t.Errorf("%s: 40 queries hit %d distinct targets, want %d", w.name, len(distinct), want)
		}
	}
	w, _ := findWorkload("dashboard_hot")
	got := w.queryPath(querySpec{target: "dash/rack07/*", from: 10, to: 20})
	if want := "/api/v1/query?match=dash/rack07/*&from=10&to=20&reconstruct=auto&max_points=4096"; got != want {
		t.Errorf("queryPath = %q, want %q", got, want)
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{10, 20, 30, 40, 50}, 0.25, 20},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.99, 10.9},
	} {
		if got := percentile(append([]float64(nil), tc.xs...), tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if got := iqrRatio([]float64{10, 20, 30, 40, 50}); got != 20.0/30 {
		t.Errorf("iqrRatio = %v, want %v", got, 20.0/30)
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{20, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestParseProcStat(t *testing.T) {
	page := float64(os.Getpagesize())
	for _, tc := range []struct {
		line    string
		cpu     float64
		rssPage float64
		bad     bool
	}{
		{line: "4242 (nyquistd) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 9 0 12345 1000000 2500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0", cpu: 2.0, rssPage: 2500},
		{line: "7 (a b) c) R 1 7 7 0 -1 0 0 0 0 0 1 2 0 0 20 0 1 0 5 10 3 0 0 0", cpu: 0.03, rssPage: 3},
		{line: "7 nyquistd S 1", bad: true},
		{line: "7 (x) S 1 2 3", bad: true},
		{line: "7 (x) S 1 7 7 0 -1 0 0 0 0 0 u 2 0 0 20 0 1 0 5 10 3 0", bad: true},
	} {
		got, err := parseProcStat(tc.line)
		if tc.bad {
			if err == nil {
				t.Errorf("parseProcStat(%q) succeeded, want an error", tc.line)
			}
			continue
		}
		if err != nil || math.Abs(got.cpuSeconds-tc.cpu) > 1e-12 || float64(got.rssBytes) != tc.rssPage*page {
			t.Errorf("parseProcStat(%q) = %+v, %v; want cpu %v rss %v pages", tc.line, got, err, tc.cpu, tc.rssPage)
		}
	}
	if _, err := readProcStat(os.Getpid()); err != nil {
		t.Errorf("readProcStat(self): %v", err)
	}
}

const promText = `# HELP nyquistd_ingest_parse_total Ingest lines by parse path.
# TYPE nyquistd_ingest_parse_total counter
nyquistd_ingest_parse_total{path="fallback"} 0
nyquistd_ingest_parse_total{path="fast"} 4096
nyquistd_tsdb_series 512
nyquistd_wal_fsync_seconds_bucket{le="0.001"} 10
nyquistd_wal_fsync_seconds_bucket{le="0.0025"} 30
nyquistd_wal_fsync_seconds_bucket{le="+Inf"} 40
nyquistd_wal_fsync_seconds_sum 0.07
nyquistd_wal_fsync_seconds_count 40
nyquistd_http_request_seconds_bucket{handler="ingest",le="0.001"} 0
nyquistd_http_request_seconds_bucket{handler="ingest",le="0.0025"} 8
nyquistd_http_request_seconds_bucket{handler="ingest",le="+Inf"} 8
nyquistd_http_request_seconds_bucket{handler="query",le="0.001"} 100
nyquistd_http_request_seconds_bucket{handler="query",le="+Inf"} 100
`

func TestParseProm(t *testing.T) {
	snap, err := parseProm([]byte(promText))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		`nyquistd_ingest_parse_total{path="fast"}`:                          4096,
		`nyquistd_tsdb_series`:                                              512,
		`nyquistd_wal_fsync_seconds_bucket{le="+Inf"}`:                      40,
		`nyquistd_http_request_seconds_bucket{handler="ingest",le="0.001"}`: 0,
	} {
		if got, ok := snap[name]; !ok || got != want {
			t.Errorf("snap[%s] = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if got := delta(promSnapshot{"a": 3}, promSnapshot{"a": 10}, "a"); got != 7 {
		t.Errorf("delta = %v, want 7", got)
	}
	for _, bad := range []string{"novalue\n", "name notanumber\n"} {
		if _, err := parseProm([]byte(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded, want an error", bad)
		}
	}
	none := promSnapshot{}
	for _, tc := range []struct {
		family, labels string
		q, want        float64
	}{
		// rank 20 of 40: halfway through the (0.001, 0.0025] bucket's 20.
		{"nyquistd_wal_fsync_seconds", "", 0.5, 0.001 + 0.0015*10/20},
		// rank 36 lies in +Inf: the last finite bound is all that is known.
		{"nyquistd_wal_fsync_seconds", "", 0.9, 0.0025},
		{"nyquistd_http_request_seconds", `handler="ingest"`, 0.5, 0.001 + 0.0015*4/8},
		{"nyquistd_http_request_seconds", `handler="query"`, 0.5, 0.0005},
		{"nyquistd_http_request_seconds", `handler="stats"`, 0.5, 0},
	} {
		if got := histQuantile(none, snap, tc.family, tc.labels, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("histQuantile(%s{%s}, %v) = %v, want %v", tc.family, tc.labels, tc.q, got, tc.want)
		}
	}
	// Over a delta only the observations between the scrapes count.
	before := promSnapshot{
		`nyquistd_wal_fsync_seconds_bucket{le="0.001"}`:  10,
		`nyquistd_wal_fsync_seconds_bucket{le="0.0025"}`: 10,
		`nyquistd_wal_fsync_seconds_bucket{le="+Inf"}`:   10,
	}
	if got, want := histQuantile(before, snap, "nyquistd_wal_fsync_seconds", "", 0.5), 0.001+0.0015*15/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("histQuantile over a delta = %v, want %v", got, want)
	}
}

func TestParseHeapInuse(t *testing.T) {
	text := "heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 1353784\n# HeapAlloc = 1353784\n# HeapInuse = 1982464\n# HeapReleased = 0\n"
	if got, err := parseHeapInuse([]byte(text)); err != nil || got != 1982464 {
		t.Errorf("parseHeapInuse = %v, %v; want 1982464", got, err)
	}
	if _, err := parseHeapInuse([]byte("# HeapAlloc = 5\n")); err == nil {
		t.Error("parseHeapInuse without a HeapInuse line succeeded")
	}
}

func TestParseRecovered(t *testing.T) {
	r, ok := parseRecovered("nyquistd: recovered /tmp/x: 512 series, 6291456 replayed points across 2 segments (snapshot=false, torn_tail=true) in 7.363s")
	if !ok || r.series != 512 || r.points != 6291456 || r.took != 7363*time.Millisecond {
		t.Errorf("parseRecovered = %+v, %v", r, ok)
	}
	if _, ok := parseRecovered("nyquistd: listening on 127.0.0.1:1"); ok {
		t.Error("parseRecovered matched a listening line")
	}
}

// BENCHMARK.json and the tables in main.go and workloads.go must say the
// same thing: the driver checks one against the other's output.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != frozenSeconds {
		t.Errorf("run_seconds %d, frozenSeconds %d", doc.RunSeconds, frozenSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, code has %q (or the whys differ)", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the code", kind, len(declared), len(defs))
		}
		for i, m := range declared {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: declared %s [%s], code has %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
