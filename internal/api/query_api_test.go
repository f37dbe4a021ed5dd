package api

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/dcsim"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// rampLines builds n ingest lines for a linear ramp: value i at
// apiStart + i·step.
func rampLines(id string, n int, step time.Duration) []string {
	lines := make([]string, n)
	for i := 0; i < n; i++ {
		when := apiStart.Add(time.Duration(i) * step)
		lines[i] = fmt.Sprintf(`{"series":%q,"ts":%q,"value":%d}`, id, when.Format(time.RFC3339Nano), i)
	}
	return lines
}

// TestQueryParamValidation pins the 400 surface: inverted ranges,
// unknown reconstruction policies, non-positive steps and contradictory
// series selectors must all be rejected loudly, not absorbed.
func TestQueryParamValidation(t *testing.T) {
	_, ts := newTestServer(t)
	postLines(t, ts.URL, rampLines("v/ramp", 16, time.Second))

	cases := []struct {
		name, query, wantErr string
	}{
		{"inverted-range", "series=v/ramp&from=2026-07-01T01:00:00Z&to=2026-07-01T00:00:00Z", "bad range: from after to"},
		{"unknown-reconstruct", "series=v/ramp&reconstruct=spline", "bad reconstruct"},
		{"zero-step", "series=v/ramp&reconstruct=linear&step=0", "bad step"},
		{"negative-step", "series=v/ramp&reconstruct=linear&step=-2", "bad step"},
		{"nan-step", "series=v/ramp&reconstruct=linear&step=NaN", "bad step"},
		{"inf-step", "series=v/ramp&reconstruct=linear&step=Inf", "above the longest representable step"},
		{"huge-step", "series=v/ramp&reconstruct=linear&step=1e10", "above the longest representable step"},
		{"garbage-step", "series=v/ramp&step=fast", "bad step"},
		{"series-and-match", "series=v/ramp&match=v/", "mutually exclusive"},
		{"neither", "", "missing required parameter"},
		{"bad-max-points", "series=v/ramp&max_points=-3", "bad max_points"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var body errorBody
			code := getJSON(t, ts.URL+"/api/v1/query?"+c.query, &body)
			if code != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400 (%+v)", code, body)
			}
			if !strings.Contains(body.Error, c.wantErr) {
				t.Fatalf("error %q does not mention %q", body.Error, c.wantErr)
			}
		})
	}

	// An equal, non-inverted range stays legal (empty 200).
	var qr QueryResponse
	if code := getJSON(t, ts.URL+"/api/v1/query?series=v/ramp&from=2026-07-01T00:00:05Z&to=2026-07-01T00:00:05Z", &qr); code != http.StatusOK {
		t.Fatalf("empty equal-bounds range: HTTP %d, want 200", code)
	}
	if len(qr.Points) != 0 {
		t.Fatalf("empty [t, t) range returned %d points", len(qr.Points))
	}
}

// TestQueryClampedFlag pins the max_points honesty contract: a request
// above the server cap is served at the cap and says so; a request under
// it is not flagged.
func TestQueryClampedFlag(t *testing.T) {
	_, hts := newTestServer(t)
	postLines(t, hts.URL, rampLines("c/ramp", 200, time.Second))

	var qr QueryResponse
	if code := getJSON(t, hts.URL+fmt.Sprintf("/api/v1/query?series=c/ramp&max_points=%d", maxQueryPoints+1), &qr); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if !qr.Clamped {
		t.Fatalf("max_points=%d over the %d-point cap must set clamped", maxQueryPoints+1, maxQueryPoints)
	}
	if len(qr.Points) != 200 {
		t.Fatalf("clamped query returned %d points, want all 200 (under the cap)", len(qr.Points))
	}
	qr = QueryResponse{}
	if code := getJSON(t, hts.URL+"/api/v1/query?series=c/ramp&max_points=30", &qr); code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if qr.Clamped {
		t.Fatal("an in-cap max_points must not be flagged clamped")
	}
	if len(qr.Points) > 30 {
		t.Fatalf("budget 30 exceeded: %d points", len(qr.Points))
	}
	// The clamp is also counted.
	if got := metricValue(t, hts.URL, "nyquistd_query_clamped_total"); got != 1 {
		t.Fatalf("nyquistd_query_clamped_total = %v, want 1", got)
	}
}

// newHTTPServer wraps a configured Server in an httptest listener.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// metricValue scrapes /metrics and returns the value of an unlabeled
// family's sample, or -1 when absent.
func metricValue(t *testing.T, base, family string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, family+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(family)+1:], "%g", &v); err == nil {
				return v
			}
		}
	}
	return -1
}

// TestQueryMatchEndpoint pins the multi-series fan-in surface: sorted
// results, shared budget, the zero-match 200, and series-cap truncation.
func TestQueryMatchEndpoint(t *testing.T) {
	_, hts := newTestServer(t)
	for _, id := range []string{"fleet/dev2", "fleet/dev1", "fleet/dev3", "other/dev"} {
		postLines(t, hts.URL, rampLines(id, 60, time.Second))
	}

	t.Run("zero-matches-is-200", func(t *testing.T) {
		var mr MatchResponse
		if code := getJSON(t, hts.URL+"/api/v1/query?match=nosuch/", &mr); code != http.StatusOK {
			t.Fatalf("zero-match pattern: HTTP %d, want 200", code)
		}
		if mr.Matches != 0 || len(mr.Results) != 0 {
			t.Fatalf("zero-match response %+v, want empty", mr)
		}
	})
	t.Run("glob-fan-in", func(t *testing.T) {
		var mr MatchResponse
		if code := getJSON(t, hts.URL+"/api/v1/query?"+url.Values{"match": {"fleet/dev?"}}.Encode(), &mr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		if mr.Matches != 3 || mr.Truncated || len(mr.Results) != 3 {
			t.Fatalf("matched %d, truncated=%v, results=%d — want 3/false/3", mr.Matches, mr.Truncated, len(mr.Results))
		}
		for i, r := range mr.Results {
			if want := fmt.Sprintf("fleet/dev%d", i+1); r.Series != want {
				t.Fatalf("result %d is %q, want %q — results must be sorted by id", i, r.Series, want)
			}
			if len(r.Points) != 60 {
				t.Fatalf("series %q returned %d points, want 60", r.Series, len(r.Points))
			}
		}
	})
	t.Run("series-cap-truncates", func(t *testing.T) {
		// One more id than the cap: the match is cut deterministically to
		// the smallest maxQuerySeries ids, sorted.
		lines := make([]string, maxQuerySeries+1)
		for i := range lines {
			lines[i] = fmt.Sprintf(`{"series":"cap/%04d","ts":%d,"value":1}`, i, apiStart.Unix())
		}
		postLines(t, hts.URL, lines)
		var mr MatchResponse
		if code := getJSON(t, hts.URL+"/api/v1/query?match=cap/", &mr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		if mr.Matches != maxQuerySeries+1 || !mr.Truncated || len(mr.Results) != maxQuerySeries {
			t.Fatalf("matched %d, truncated=%v, results=%d — want %d/true/%d",
				mr.Matches, mr.Truncated, len(mr.Results), maxQuerySeries+1, maxQuerySeries)
		}
		for i, r := range mr.Results {
			if want := fmt.Sprintf("cap/%04d", i); r.Series != want {
				t.Fatalf("kept %q at %d, want %q — the smallest ids, sorted", r.Series, i, want)
			}
		}
	})
	t.Run("budget-split", func(t *testing.T) {
		var mr MatchResponse
		if code := getJSON(t, hts.URL+"/api/v1/query?match=fleet/&max_points=30", &mr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		for _, r := range mr.Results {
			if len(r.Points) > 10 {
				t.Fatalf("series %q got %d points of a 30-point budget over 3 answered series", r.Series, len(r.Points))
			}
		}
	})
	t.Run("reconstructed-fan-in", func(t *testing.T) {
		var mr MatchResponse
		u := hts.URL + "/api/v1/query?match=fleet/&reconstruct=linear&step=1"
		if code := getJSON(t, u, &mr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		for _, r := range mr.Results {
			if r.Reconstruct != "linear" || r.StepSeconds != 1 {
				t.Fatalf("series %q reconstruct=%q step=%v, want linear/1", r.Series, r.Reconstruct, r.StepSeconds)
			}
			if len(r.Points) != 60 {
				t.Fatalf("series %q reconstructed to %d points, want 60 (1 Hz over 59 s)", r.Series, len(r.Points))
			}
		}
	})
}

// TestQueryReconstructGrid pins the single-series reconstruction
// contract: the response grid is uniform at the requested step, values
// follow the policy, and the annotations echo what was done.
func TestQueryReconstructGrid(t *testing.T) {
	_, ts := newTestServer(t)
	const id = "r/ramp"
	// A ramp at 10 s spacing: value i at t = 10i s, so the signal in
	// continuous time is v(t) = t/10.
	postLines(t, ts.URL, rampLines(id, 20, 10*time.Second))

	t.Run("linear", func(t *testing.T) {
		var qr QueryResponse
		if code := getJSON(t, ts.URL+"/api/v1/query?series="+id+"&reconstruct=linear&step=5", &qr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		if qr.Reconstruct != "linear" || qr.StepSeconds != 5 {
			t.Fatalf("annotations reconstruct=%q step=%v, want linear/5", qr.Reconstruct, qr.StepSeconds)
		}
		// 0..190 s at 5 s pitch = 39 slots.
		if len(qr.Points) != 39 {
			t.Fatalf("grid has %d slots, want 39", len(qr.Points))
		}
		for i, p := range qr.Points {
			when, err := time.Parse(time.RFC3339Nano, p.TS)
			if err != nil {
				t.Fatal(err)
			}
			wantT := apiStart.Add(time.Duration(i) * 5 * time.Second)
			if !when.Equal(wantT) {
				t.Fatalf("slot %d at %v, want %v — grid must be uniform from the first stored point", i, when, wantT)
			}
			want := float64(i) * 5 / 10
			if math.Abs(p.Value-want) > 1e-9 {
				t.Fatalf("slot %d = %v, want %v (linear ramp)", i, p.Value, want)
			}
		}
	})
	t.Run("previous", func(t *testing.T) {
		var qr QueryResponse
		if code := getJSON(t, ts.URL+"/api/v1/query?series="+id+"&reconstruct=previous&step=5", &qr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		for i, p := range qr.Points {
			// Sample-and-hold: slot at 5i s holds the ramp value from the
			// last 10 s boundary.
			want := math.Floor(float64(i)*5/10 + 1e-9)
			if p.Value != want {
				t.Fatalf("slot %d = %v, want %v (sample-and-hold)", i, p.Value, want)
			}
		}
	})
	t.Run("step-implies-auto", func(t *testing.T) {
		var qr QueryResponse
		if code := getJSON(t, ts.URL+"/api/v1/query?series="+id+"&step=10", &qr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		if qr.Reconstruct == "" {
			t.Fatal("step without reconstruct must imply auto and report the resolved policy")
		}
		if len(qr.Points) != 20 {
			t.Fatalf("on-grid auto reconstruction has %d points, want 20", len(qr.Points))
		}
	})
	t.Run("grid-over-budget-clamps", func(t *testing.T) {
		var qr QueryResponse
		if code := getJSON(t, ts.URL+"/api/v1/query?series="+id+"&reconstruct=linear&step=0.001&max_points=100", &qr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		if !qr.Clamped {
			t.Fatal("a 190k-slot grid against a 100-point budget must clamp")
		}
		if len(qr.Points) != 100 {
			t.Fatalf("clamped grid has %d points, want exactly the 100 budget", len(qr.Points))
		}
	})
	t.Run("empty-window-reconstructs-empty", func(t *testing.T) {
		var qr QueryResponse
		u := ts.URL + "/api/v1/query?series=" + id + "&reconstruct=linear&step=5&from=2027-01-01T00:00:00Z&to=2027-01-02T00:00:00Z"
		if code := getJSON(t, u, &qr); code != http.StatusOK {
			t.Fatalf("HTTP %d, want 200 for an empty in-range window", code)
		}
		if len(qr.Points) != 0 {
			t.Fatalf("empty window reconstructed %d points", len(qr.Points))
		}
	})
}

// TestReconstructDefaultStepFollowsStoreHeadroom: with no ?step=, the
// grid is cut at the store's own retention headroom over its recorded
// rate — the pitch the tier buckets were sized at — not at a constant of
// the API's. The 200 points are one raw run of 1 s polls, above the
// rate, so auto band-limits it.
func TestReconstructDefaultStepFollowsStoreHeadroom(t *testing.T) {
	const (
		id   = "r/ramp"
		rate = 0.05 // Hz, recorded as the series' Nyquist rate
	)
	wantStep := 1 / (series.Headroom * rate) // seconds
	t.Run("default headroom 1.2", func(t *testing.T) {
		store := tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: 4096}})
		ts := httptest.NewServer(NewServer(Config{Store: store}).Handler())
		defer ts.Close()
		postLines(t, ts.URL, rampLines(id, 200, time.Second))
		store.SetNyquistRate(id, rate)
		var qr QueryResponse
		if code := getJSON(t, ts.URL+"/api/v1/query?series="+id+"&reconstruct=auto", &qr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		// The step is truncated to whole nanoseconds.
		if qr.Reconstruct != "bandlimited" || math.Abs(qr.StepSeconds-wantStep) > 1e-9 {
			t.Fatalf("reconstruct=%q step=%v s, want bandlimited at %v s", qr.Reconstruct, qr.StepSeconds, wantStep)
		}
		if want := int(199/wantStep) + 1; len(qr.Points) != want {
			t.Fatalf("grid has %d slots, want %d over 199 s", len(qr.Points), want)
		}
	})
}

// TestReconstructionBeatsStairStep is the acceptance golden test: over a
// seeded dcsim diurnal device, the server-side linear reconstruction at
// a grid 4x finer than the stored samples must track the clean signal
// better than the stair-step (previous-value) rendering a dashboard
// would otherwise draw, and land within the regime's quality bar
// (RMSE ≤ 35% of swing).
func TestReconstructionBeatsStairStep(t *testing.T) {
	scn, err := dcsim.BuildScenario("diurnal", 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	dev := scn.Fleet.Devices[0]
	// Store at 2x the device's true Nyquist rate (the paper's safe
	// oversampling), then ask the server for a 4x finer grid than stored.
	rate := 2 * dev.TrueNyquist
	ivSec := 1 / rate
	const n = 256

	_, ts := newTestServer(t)
	const id = "golden/diurnal"
	lines := make([]string, n)
	for i := 0; i < n; i++ {
		off := float64(i) * ivSec
		when := apiStart.Add(time.Duration(off * float64(time.Second)))
		lines[i] = fmt.Sprintf(`{"series":%q,"ts":%q,"value":%.9f}`, id, when.Format(time.RFC3339Nano), dev.CleanAt(off))
	}
	postLines(t, ts.URL, lines)

	rmseAt := func(mode string) float64 {
		var qr QueryResponse
		u := fmt.Sprintf("%s/api/v1/query?series=%s&reconstruct=%s&step=%.6f", ts.URL, id, mode, ivSec/4)
		if code := getJSON(t, u, &qr); code != http.StatusOK {
			t.Fatalf("reconstruct=%s: HTTP %d", mode, code)
		}
		if len(qr.Points) <= n {
			t.Fatalf("reconstruct=%s returned %d points — not finer than the %d stored", mode, len(qr.Points), n)
		}
		var sum float64
		for _, p := range qr.Points {
			when, err := time.Parse(time.RFC3339Nano, p.TS)
			if err != nil {
				t.Fatal(err)
			}
			truth := dev.CleanAt(when.Sub(apiStart).Seconds())
			sum += (p.Value - truth) * (p.Value - truth)
		}
		return math.Sqrt(sum / float64(len(qr.Points)))
	}

	linear := rmseAt("linear")
	stair := rmseAt("previous")

	// Swing of the clean signal over the ingested span.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 4*n; i++ {
		v := dev.CleanAt(float64(i) * ivSec / 4)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	swing := hi - lo
	if swing <= 0 {
		t.Fatalf("degenerate device: swing %v", swing)
	}
	if linear >= stair {
		t.Fatalf("linear reconstruction RMSE %.4f not better than stair-step %.4f", linear, stair)
	}
	bar := scn.Spec.QualityBar * swing
	if linear > bar {
		t.Fatalf("linear reconstruction RMSE %.4f exceeds the regime quality bar %.4f (%.0f%% of %.4f swing)",
			linear, bar, 100*scn.Spec.QualityBar, swing)
	}
	t.Logf("RMSE: linear %.4f, stair %.4f, bar %.4f (swing %.4f)", linear, stair, bar, swing)

	// The same on history a tier has decimated by 16: a bucket mean sits at
	// the centroid of the polls it averages, so straight lines through the
	// centroids beat straight lines through the buckets' grid starts (what
	// a client interpolating a plain query draws, half a bucket late), and
	// both beat the stair-step through those starts. auto beats them all:
	// the tier is cut above the tone's Nyquist rate, so it band-limits the
	// run and divides out the droop of the 16 s means.
	t.Run("decimated tier", func(t *testing.T) {
		store, ts := tonedTierServer(t)
		to := apiStart.Add(1792 * time.Second) // where the raw tail begins
		const step = 4 * time.Second
		query := func(mode string) QueryResponse {
			var qr QueryResponse
			u := fmt.Sprintf("%s/api/v1/query?series=%s&to=%d&reconstruct=%s&step=%v", ts.URL, toneID, to.Unix(), mode, step.Seconds())
			if code := getJSON(t, u, &qr); code != http.StatusOK {
				t.Fatalf("reconstruct=%s: HTTP %d", mode, code)
			}
			return qr
		}
		qr, band := query("linear"), query("auto")
		if len(qr.Tiers) != 1 || qr.Tiers[0].Tier != 1 || qr.Tiers[0].WidthSeconds != 16 {
			t.Fatalf("window answered from %+v, want tier 1 at 16 s only", qr.Tiers)
		}
		if band.Reconstruct != "bandlimited" {
			t.Fatalf("auto over one tier-1 run reconstructed %q, want bandlimited", band.Reconstruct)
		}
		plain, err := store.Query(toneID, time.Time{}, to, 0)
		if err != nil {
			t.Fatal(err)
		}
		startPlaced := func(mode series.Interpolation) float64 {
			first, last := plain.Points[0].Time, plain.Points[len(plain.Points)-1].Time
			values := make([]float64, int(last.Sub(first)/step)+1)
			for i := range values {
				values[i] = math.NaN()
			}
			if err := series.New(plain.Points).ResampleGrid(values, first, step, mode); err != nil {
				t.Fatal(err)
			}
			pts := make([]PointJSON, len(values))
			for i, v := range values {
				pts[i] = PointJSON{TS: wireTime(first.Add(time.Duration(i) * step)), Value: v}
			}
			return toneRMSE(t, pts)
		}
		bandlimited, centroid := toneRMSE(t, band.Points), toneRMSE(t, qr.Points)
		start, stair := startPlaced(series.Linear), startPlaced(series.NearestNeighbor)
		t.Logf("RMSE: band-limited %.3f, centroid-placed linear %.3f, start-placed linear %.3f, start-placed nearest %.3f", bandlimited, centroid, start, stair)
		if !(bandlimited < centroid && centroid < start && start < stair) {
			t.Fatalf("RMSE band-limited %.3f, centroid-placed linear %.3f, start-placed linear %.3f, start-placed nearest %.3f: want them in that order", bandlimited, centroid, start, stair)
		}
	})
}

// TestReconstructReadsUnthinnedStore: reconstruction resamples what the
// store holds, not a stride-thinned subset of it. The series is a 40 s
// tone polled at 1 Hz and recorded at its Nyquist rate, so the tier keeps
// one mean per 16 s; 2,048 polls stitch to 368 points (112 buckets and
// the 256-point raw tail), over a 96-point budget. Handing that budget to
// the store keeps one bucket in four — 64 s between the survivors, longer
// than the tone's period — before the grid is cut, and the response said
// `thinned` beside its reconstruction, which missed the tone by an RMSE of
// 0.73 of its unit amplitude (a flat line misses by 0.71). Read whole and
// coarsened only by the grid clamp, straight lines between the centroids
// miss by 0.39 — the attenuation of a 16 s mean and the chords between
// them — and auto's band-limited, droop-compensated tier run by 0.04.
func TestReconstructReadsUnthinnedStore(t *testing.T) {
	const budget = 96
	store, ts := tonedTierServer(t)
	plain, err := store.Query(toneID, time.Time{}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Points) <= budget || len(plain.Aggregates) == 0 {
		t.Fatalf("fixture stitches to %d points, %d from tiers: want tier history and more than the %d budget", len(plain.Points), len(plain.Aggregates), budget)
	}
	check := func(t *testing.T, qr QueryResponse) {
		t.Helper()
		if qr.Reconstruct != "bandlimited" || len(qr.Points) != budget {
			t.Fatalf("reconstruct=%q with %d points, want bandlimited on the %d-point budget", qr.Reconstruct, len(qr.Points), budget)
		}
		if qr.Thinned || !qr.Clamped {
			t.Fatalf("thinned=%v clamped=%v: a reconstruction reads the store whole (never thinned) and reports the coarsened grid (clamped)", qr.Thinned, qr.Clamped)
		}
		rmse := toneRMSE(t, qr.Points)
		t.Logf("RMSE against the tone: %.3f", rmse)
		if rmse > 0.05 {
			t.Fatalf("reconstruction misses the tone by RMSE %.3f, want at most 0.05 (0.39 linear, 0.73 when interpolated through stride-thinned points)", rmse)
		}
	}
	t.Run("series", func(t *testing.T) {
		var qr QueryResponse
		if code := getJSON(t, fmt.Sprintf("%s/api/v1/query?series=%s&reconstruct=auto&max_points=%d", ts.URL, toneID, budget), &qr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		check(t, qr)
	})
	t.Run("match", func(t *testing.T) {
		var mr MatchResponse
		if code := getJSON(t, fmt.Sprintf("%s/api/v1/query?match=u/&reconstruct=auto&max_points=%d", ts.URL, budget), &mr); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		if len(mr.Results) != 1 || !mr.Clamped {
			t.Fatalf("%d results, clamped=%v: want the one series and the request-level clamp", len(mr.Results), mr.Clamped)
		}
		check(t, mr.Results[0])
	})
}

// The tiered-tone fixture: a 40 s unit tone polled 2,048 times at 1 Hz
// into a store recording it at its Nyquist rate, which leaves a 256-point
// raw tail behind 112 tier buckets of 16 polls each.
const (
	toneID     = "u/tone"
	tonePeriod = 40.0
)

func toneAt(sec float64) float64 { return math.Sin(2 * math.Pi * sec / tonePeriod) }

func tonedTierServer(t *testing.T) (*tsdb.DB, *httptest.Server) {
	t.Helper()
	store := tsdb.New(tsdb.Config{Retention: tsdb.RetentionConfig{RawCapacity: 256, TierCapacity: 512, CompressBlock: 16}})
	for i := 0; i < 2048; i++ {
		if i == 2 {
			store.SetNyquistRate(toneID, 2/tonePeriod)
		}
		if err := store.Append(toneID, series.Point{Time: apiStart.Add(time.Duration(i) * time.Second), Value: toneAt(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return store, newHTTPServer(t, NewServer(Config{Store: store}))
}

// toneRMSE is the root-mean-square distance of pts from the fixture's tone.
func toneRMSE(t *testing.T, pts []PointJSON) float64 {
	t.Helper()
	var sq float64
	for _, p := range pts {
		when, err := time.Parse(time.RFC3339Nano, p.TS)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Value - toneAt(when.Sub(apiStart).Seconds())
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(pts)))
}
