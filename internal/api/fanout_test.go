package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cores"
	"repro/internal/monitor"
	"repro/internal/tsdb"
)

// fanoutScript renders the frames TestFanoutMatchesSerial ingests. Frames
// 1 and 2 are above cores.Floor with room under MaxSeries, so they take
// the shared path: 40 series, first run-grouped as steady_bulk sends them,
// then interleaved line by line over two chunks, with out-of-order,
// malformed, blank and reordered-key lines mixed in. Frame 3 brings 65
// new series, so the cap binds and evicts the five of the 40 whose LRU
// stamps frames 1 and 2 left oldest: which five survive shows the stamps.
// Frame 4 brings 35 more, so admission evicts the other 35, then new
// series the same chunk admitted and observed more than EvictAfter
// observations earlier. Frame 5 runs every series on at the cap, and frame
// 6's 150 one-point series drop once nothing is idle enough to evict.
// Frame 7 holds the parse's edge cases over two chunks: blank and CRLF
// lines, an escaped name and an RFC 3339 ts at a parse block boundary half
// way through the first window, a line over maxLineBytes, rejects on both
// sides of the chunk boundary, and a last line without its newline.
func fanoutScript(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC).Unix()
	next := map[string]int{}
	freq := map[string]float64{}
	var sb strings.Builder
	sample := func(id string) (int64, float64) {
		if freq[id] == 0 {
			freq[id] = 0.02 + 0.2*rng.Float64()
		}
		k := next[id]
		next[id]++
		return base + 30*int64(k) + int64(rng.Intn(3)), 50 + 10*math.Sin(2*math.Pi*freq[id]*float64(k)) + rng.Float64()
	}
	line := func(id string) {
		ts, v := sample(id)
		switch rng.Intn(60) {
		case 0: // out of order: the store refuses it
			fmt.Fprintf(&sb, "{\"series\":%q,\"ts\":%d,\"value\":%.2f}\n", id, ts-3000, v)
		case 1:
			sb.WriteString("{\"series\":\"bad\",\"ts\":}\n")
		case 2:
			sb.WriteString("\r\n")
		case 3: // the encoding/json fallback
			fmt.Fprintf(&sb, "{\"value\":%.2f,\"ts\":%d,\"series\":%q}\n", v, ts, id)
		default:
			fmt.Fprintf(&sb, "{\"series\":%q,\"ts\":%d,\"value\":%.2f}\n", id, ts, v)
		}
	}
	ids := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%03d", prefix, i)
		}
		return out
	}
	a, b, c := ids("fan/a", 40), ids("fan/b", 100), ids("fan/c", 150)
	frame := func(fill func()) []byte {
		sb.Reset()
		fill()
		return []byte(sb.String())
	}
	return [][]byte{
		frame(func() {
			for _, id := range a {
				for range 40 {
					line(id)
				}
			}
		}),
		frame(func() {
			for range 160 {
				for _, id := range a {
					line(id)
				}
			}
		}),
		frame(func() {
			for _, id := range b[:65] {
				for range 20 {
					line(id)
				}
			}
		}),
		frame(func() {
			for _, id := range append(b, a[:10]...) {
				for range 20 {
					line(id)
				}
			}
		}),
		frame(func() {
			for range 12 {
				for _, id := range append(a, b...) {
					line(id)
				}
			}
		}),
		frame(func() {
			for _, id := range c {
				line(id)
			}
		}),
		frame(func() {
			pts := 0 // points so far: a chunk ends at its 4,096th
			rejectAt := map[int]bool{ingestFlushPoints - 1: true, ingestFlushPoints: true}
			for i := 0; pts < ingestFlushPoints+500; i++ {
				id := a[i/8%len(a)]
				ts, v := sample(id)
				switch {
				case i == ingestFlushPoints/2: // a parse block boundary, half way through the first window
					sb.WriteString(" \t\r\n")
				case i == ingestFlushPoints/2+1: // an escaped name: the fallback
					fmt.Fprintf(&sb, "{\"series\":\"fan/esc\\u0061\",\"ts\":%d,\"value\":%.2f}\r\n", ts, v)
					pts++
				case i == ingestFlushPoints/2+2:
					fmt.Fprintf(&sb, "{\"series\":%q,\"ts\":%q,\"value\":%.2f}\n", id, time.Unix(ts, 0).UTC().Format(time.RFC3339), v)
					pts++
				case i == 3000:
					sb.WriteString("{\"series\":\"" + strings.Repeat("x", maxLineBytes) + "\"}\n")
				case i == 3001, rejectAt[pts]: // rejects on both sides of the chunk boundary
					delete(rejectAt, pts)
					sb.WriteString("{\"series\":\"bad\",\"ts\":}\r\n")
				default:
					fmt.Fprintf(&sb, "{\"series\":%q,\"ts\":%d,\"value\":%.2f}\n", id, ts, v)
					pts++
				}
			}
			fmt.Fprintf(&sb, "{\"series\":%q,\"ts\":%d,\"value\":1}", a[0], base+1<<20) // no newline
		}),
	}
}

// fanoutRun is what one run of the script leaves: every response and
// every surviving series' advice after every frame — which series survive
// is the LRU stamps' outcome — and at the end the store's export and query
// answers and the estimator's state and counters.
type fanoutRun struct {
	responses []string
	tallies   []ingestTally
	advice    []map[string]monitor.IngestAdvice
	store     map[string]string
	queries   map[string]string
	state     []monitor.IngestSeriesState
	counters  [7]int64
}

func runFanoutScript(t *testing.T, frames [][]byte, shares int) fanoutRun {
	t.Helper()
	defer func(procs func(int) int) { cores.Procs = procs }(cores.Procs)
	cores.Procs = func(int) int { return shares }
	store := tsdb.New(tsdb.Config{
		Shards: 4,
		Retention: tsdb.RetentionConfig{
			RawCapacity:   64,
			TierCapacity:  32,
			Tiers:         2,
			CompressBlock: 16,
		},
	})
	est := monitor.NewIngestEstimator(store, monitor.IngestConfig{
		WindowSamples: 32, EmitEvery: 4, MaxSeries: 100, EvictAfter: 300,
	})
	srv := NewServer(Config{Store: store, Estimator: est})
	var out fanoutRun
	for _, f := range frames {
		var resp IngestResponse
		var tally ingestTally
		if err := srv.runIngest(bytes.NewReader(f), int64(len(f)), &resp, &tally); err != nil {
			t.Fatal(err)
		}
		js, _ := json.Marshal(resp)
		out.responses = append(out.responses, string(js))
		out.tallies = append(out.tallies, tally)
		adv := map[string]monitor.IngestAdvice{}
		for _, st := range est.ExportState() {
			adv[st.Series], _ = est.Advice(st.Series)
		}
		out.advice = append(out.advice, adv)
	}
	out.store = storeSnapshot(t, store)
	out.queries = map[string]string{}
	for id := range out.store {
		q, err := store.Query(id, time.Unix(0, 0), time.Unix(1<<40, 0), 0)
		if err != nil {
			t.Fatal(err)
		}
		js, _ := json.Marshal(q)
		out.queries[id] = string(js)
	}
	out.state = est.ExportState()
	out.counters = [7]int64{est.Probes(), est.Reprobes(), est.Retunes(), est.HeldRefreshes(),
		est.AliasedRefreshes(), est.Evicted(), est.Rejected()}
	return out
}

// TestFanoutMatchesSerial holds the shared ingest path to the serial one:
// the same frames, once with every stage on one goroutine and once with
// parse windows and chunks of cores.Floor lines or points or more split
// into two shares (forced, so a one-CPU runner takes it too), must leave
// identical responses with their error lines, metric deltas, stored
// bytes, query answers, estimator state, advice, the same series
// surviving every frame's evictions, and counters — through out-of-order
// and malformed lines, several shards, and a MaxSeries cap with a short
// EvictAfter that binds.
func TestFanoutMatchesSerial(t *testing.T) {
	frames := fanoutScript(7)
	serial := runFanoutScript(t, frames, 1)
	shared := runFanoutScript(t, frames, 2)

	var resp IngestResponse
	if err := json.Unmarshal([]byte(serial.responses[5]), &resp); err != nil || resp.EstimatorDropped == 0 {
		t.Fatalf("frame 6 must drop at the cap: %+v, %v", resp, err)
	}
	if n := len(serial.advice[2]); n != 100 {
		t.Fatalf("frame 3 must leave the cap's 100 series, not %d", n)
	}
	if c := serial.counters; c[2] == 0 || c[5] == 0 {
		t.Fatalf("the script must retune and evict: counters %v", c)
	}
	for i := range serial.responses {
		if serial.responses[i] != shared.responses[i] {
			t.Fatalf("frame %d response:\nserial: %s\nshared: %s", i+1, serial.responses[i], shared.responses[i])
		}
		if serial.tallies[i] != shared.tallies[i] {
			t.Fatalf("frame %d metric deltas:\nserial: %+v\nshared: %+v", i+1, serial.tallies[i], shared.tallies[i])
		}
		if !reflect.DeepEqual(serial.advice[i], shared.advice[i]) {
			t.Fatalf("advice after frame %d:\nserial: %v\nshared: %v", i+1, serial.advice[i], shared.advice[i])
		}
	}
	for name, pair := range map[string][2]any{
		"stored series":   {serial.store, shared.store},
		"query answers":   {serial.queries, shared.queries},
		"estimator state": {serial.state, shared.state},
		"counters":        {serial.counters, shared.counters},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s differ:\nserial: %v\nshared: %v", name, pair[0], pair[1])
		}
	}
}
