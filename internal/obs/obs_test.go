package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeHistogramBasics pins the instrument semantics the
// exposition and the self-scrape loop rely on.
func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("test_counter_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.Gauge("test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	h := r.Histogram("test_hist", "help", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("hist count = %d, want 5", got)
	}
	if got := h.Sum(); got != 111.5 {
		t.Fatalf("hist sum = %v, want 111.5", got)
	}
}

func TestVecChildIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "help", "handler", "code")
	a := v.With("ingest", "2xx")
	b := v.With("ingest", "2xx")
	if a != b {
		t.Fatal("same label values must resolve to the same child")
	}
	a.Inc()
	if got := b.Value(); got != 1 {
		t.Fatalf("shared child = %d, want 1", got)
	}
	if c := v.With("ingest", "5xx"); c == a {
		t.Fatal("different label values must resolve to different children")
	}
}

func TestRegistryPanicsOnConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_metric", "help")
	mustPanic(t, "type conflict", func() { r.Gauge("test_metric", "help") })
	mustPanic(t, "schema conflict", func() {
		r.CounterVec("test_labeled", "help", "a")
		r.CounterVec("test_labeled", "help", "b")
	})
	mustPanic(t, "invalid name", func() { r.Counter("0bad", "help") })
	mustPanic(t, "reserved label", func() { r.CounterVec("test_le", "help", "le") })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("test_buckets", "help", []float64{2, 1}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestExpositionGolden pins the exact text format: HELP/TYPE headers,
// label rendering and escaping, cumulative le buckets with +Inf, and
// deterministic family/child ordering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_a_total", "Counts a.").Add(3)
	v := r.CounterVec("test_b_total", "Counts b, labeled.", "handler", "code")
	v.With("query", "2xx").Add(2)
	v.With("ingest", "2xx").Inc()
	r.Gauge("test_g", "A gauge with an \"odd\"\nhelp\\string.").Set(1.5)
	h := r.Histogram("test_h", "A histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.GaugeFunc("test_fn", "A sampled gauge.", func() float64 { return 42 })
	gv := r.GaugeVec("test_fv", "Sampled gauges, labeled.", "class")
	gv.Func(func() float64 { return 7 }, "b")
	gv.f.child([]string{"a"}).gauge.Set(2)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP test_a_total Counts a.",
		"# TYPE test_a_total counter",
		"test_a_total 3",
		"# HELP test_b_total Counts b, labeled.",
		"# TYPE test_b_total counter",
		`test_b_total{handler="ingest",code="2xx"} 1`,
		`test_b_total{handler="query",code="2xx"} 2`,
		"# HELP test_fn A sampled gauge.",
		"# TYPE test_fn gauge",
		"test_fn 42",
		"# HELP test_fv Sampled gauges, labeled.",
		"# TYPE test_fv gauge",
		`test_fv{class="a"} 2`,
		`test_fv{class="b"} 7`,
		`# HELP test_g A gauge with an "odd"\nhelp\\string.`,
		"# TYPE test_g gauge",
		"test_g 1.5",
		"# HELP test_h A histogram.",
		"# TYPE test_h histogram",
		`test_h_bucket{le="0.1"} 1`,
		`test_h_bucket{le="1"} 2`,
		`test_h_bucket{le="+Inf"} 3`,
		"test_h_sum 2.55",
		"test_h_count 3",
		"",
	}, "\n")
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestGatherSampleIDs(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_total", "help", "x").With("a").Inc()
	h := r.Histogram("test_h", "help", []float64{1})
	h.Observe(0.5)
	ids := map[string]float64{}
	for _, s := range r.Gather() {
		ids[s.ID()] = s.Value
	}
	for id, want := range map[string]float64{
		`test_total{x="a"}`:        1,
		`test_h_bucket{le="1"}`:    1,
		`test_h_bucket{le="+Inf"}`: 1,
		"test_h_sum":               0.5,
		"test_h_count":             1,
	} {
		if got, ok := ids[id]; !ok || got != want {
			t.Errorf("sample %q = %v (present=%v), want %v", id, got, ok, want)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	for v, want := range map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1.5:          "1.5",
		3:            "3",
	} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

// TestConcurrencyHammer drives every instrument kind from many
// goroutines while a reader gathers — the -race CI job turns any
// unsynchronized access into a failure, and the totals check that no
// increment was lost.
func TestConcurrencyHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "help")
	v := r.CounterVec("hammer_labeled_total", "help", "worker")
	g := r.Gauge("hammer_gauge", "help")
	h := r.Histogram("hammer_hist", "help", []float64{0.25, 0.5, 0.75})

	const workers = 8
	const perWorker = 5000
	var writers, reader sync.WaitGroup
	stopReads := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
				r.Gather()
				var sb strings.Builder
				_ = r.WriteProm(&sb)
			}
		}
	}()
	labels := []string{"w0", "w1", "w2", "w3"}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			lc := v.With(labels[w%len(labels)])
			for i := 0; i < perWorker; i++ {
				c.Inc()
				lc.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	writers.Wait()
	close(stopReads)
	reader.Wait()

	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got != float64(total) {
		t.Errorf("gauge = %v, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Errorf("hist count = %d, want %d", got, total)
	}
	var labeledTotal int64
	for _, l := range labels {
		labeledTotal += v.With(l).Value()
	}
	if labeledTotal != total {
		t.Errorf("labeled sum = %d, want %d", labeledTotal, total)
	}
}
