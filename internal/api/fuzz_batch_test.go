package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/dcsim"
	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// diffPair is one differential-ingest fixture: a server driven through
// the batched core (runIngest) and a twin store/estimator pair driven
// through the reference per-line algorithm. Estimators are advice-only
// (nil store) and uncapped so their feeds can't retune retention or
// drop series mid-batch — the stores stay pure functions of the accept/
// reject stream, which is the thing under test.
type diffPair struct {
	srv      *Server
	refStore *tsdb.DB
	refEst   *monitor.IngestEstimator
}

func newDiffPair() *diffPair {
	mk := func() *tsdb.DB {
		return tsdb.New(tsdb.Config{
			Shards: 4,
			Retention: tsdb.RetentionConfig{
				RawCapacity:   64,
				TierCapacity:  32,
				Tiers:         2,
				CompressBlock: 16,
			},
		})
	}
	return &diffPair{
		srv: NewServer(Config{
			Store:     mk(),
			Estimator: monitor.NewIngestEstimator(nil, monitor.IngestConfig{}),
		}),
		refStore: mk(),
		refEst:   monitor.NewIngestEstimator(nil, monitor.IngestConfig{}),
	}
}

// referenceIngest is the per-line oracle: the seed handler's algorithm —
// bufio.ReadBytes, fast/fallback parse, one store.Append and one
// estimator.Observe per line — preserved verbatim as the semantic
// contract the batched core must reproduce bit for bit.
func referenceIngest(store *tsdb.DB, est *monitor.IngestEstimator, raw []byte) IngestResponse {
	body := bufio.NewReaderSize(bytes.NewReader(raw), 64<<10)
	resp := IngestResponse{}
	seen := map[string]string{}
	lineNo := 0
	intern := func(b []byte) (string, bool) {
		if id, ok := seen[string(b)]; ok {
			return id, false
		}
		id := string(b)
		seen[id] = id
		return id, true
	}
	ingestPoint := func(id string, p series.Point, isNew bool) {
		if aerr := store.Append(id, p); aerr != nil {
			resp.reject(lineNo, appendReason(aerr))
			if isNew {
				delete(seen, id)
			}
			return
		}
		if !est.Observe(id, p) {
			resp.EstimatorDropped++
		}
		resp.Accepted++
		if isNew {
			resp.Series++
		}
	}
	for {
		line, err := body.ReadBytes('\n')
		if len(line) > 0 {
			lineNo++
			switch line = bytes.TrimRight(line, "\r\n"); {
			case len(line) > maxLineBytes:
				resp.reject(lineNo, lineTooLongReason)
			case len(line) == 0 || allSpace(line):
			default:
				if fl, ok := fastParseLine(line); ok {
					id, isNew := intern(fl.series)
					ingestPoint(id, series.Point{Time: fl.t, Value: fl.value}, isNew)
					break
				}
				var in IngestLine
				if jerr := json.Unmarshal(line, &in); jerr != nil {
					resp.reject(lineNo, "bad JSON: "+jerr.Error())
					break
				}
				p, perr := in.point()
				if perr != nil {
					resp.reject(lineNo, perr.Error())
					break
				}
				id, isNew := intern([]byte(in.Series))
				ingestPoint(id, p, isNew)
			}
		}
		if err != nil {
			if err == io.EOF {
				break
			}
			resp.reject(lineNo+1, err.Error())
			break
		}
	}
	return resp
}

// runDiff feeds one batch body through both implementations and fails on
// any observable divergence: the JSON response (accept/reject verdicts,
// reasons, error lines, series and estimator-drop counts), the stored
// bytes per series, and the estimators' full per-series tuning state.
func runDiff(t *testing.T, d *diffPair, body io.Reader, raw []byte) {
	t.Helper()
	resp := IngestResponse{}
	var tally ingestTally
	if err := d.srv.runIngest(body, &resp, &tally); err != nil {
		t.Fatalf("runIngest returned %v for a plain reader (only the HTTP body limit may error)", err)
	}
	want := referenceIngest(d.refStore, d.refEst, raw)

	if tally.accepted+tally.rejected != int64(resp.Accepted+resp.Rejected) {
		t.Fatalf("tally accounting diverges from response: tally %d+%d, response %d+%d",
			tally.accepted, tally.rejected, resp.Accepted, resp.Rejected)
	}
	got, _ := json.Marshal(resp)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("responses diverge on %q:\nbatched:  %s\nper-line: %s", truncateRaw(raw), got, wantJSON)
	}

	gotSnap, wantSnap := storeSnapshot(t, d.srv.store), storeSnapshot(t, d.refStore)
	if len(gotSnap) != len(wantSnap) {
		t.Fatalf("stored series diverge: batched %d, per-line %d", len(gotSnap), len(wantSnap))
	}
	for id, w := range wantSnap {
		if g := gotSnap[id]; g != w {
			t.Fatalf("stored state diverges for %q:\nbatched:  %s\nper-line: %s", id, g, w)
		}
	}

	gotState, wantState := d.srv.ingest.ExportState(), d.refEst.ExportState()
	if len(gotState) != len(wantState) {
		t.Fatalf("estimator series diverge: batched %d, per-line %d", len(gotState), len(wantState))
	}
	for i := range wantState {
		if gotState[i] != wantState[i] {
			t.Fatalf("estimator state diverges for %q:\nbatched:  %+v\nper-line: %+v",
				wantState[i].Series, gotState[i], wantState[i])
		}
	}
}

// storeSnapshot renders every stored byte and counter of s per series, with
// the in-progress tier bucket dereferenced (its pointer identity is not
// part of the stored state).
func storeSnapshot(t *testing.T, s *tsdb.DB) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := s.ExportSeries(func(ss tsdb.SeriesSnapshot) error {
		var b strings.Builder
		fmt.Fprintf(&b, "%s ny=%v gap=%v last=%v/%v app=%d comp=%d drop=%d\n",
			ss.ID, ss.NyquistRate, ss.Gap, ss.LastTime, ss.HaveLast, ss.Appends, ss.Compacted, ss.Dropped)
		for _, blk := range ss.Raw {
			fmt.Fprintf(&b, "raw blk=%x n=%d\n", blk.Data(), blk.Len())
		}
		fmt.Fprintf(&b, "active=%v\n", ss.Active)
		for _, tr := range ss.Tiers {
			fmt.Fprintf(&b, "tier w=%v buckets=%+v", tr.Width, tr.Buckets)
			if tr.Cur != nil {
				fmt.Fprintf(&b, " cur=%+v", *tr.Cur)
			}
			b.WriteByte('\n')
		}
		out[ss.ID] = b.String()
		return nil
	}); err != nil {
		t.Fatalf("export: %v", err)
	}
	return out
}

func truncateRaw(raw []byte) []byte {
	if len(raw) > 256 {
		return raw[:256]
	}
	return raw
}

// FuzzIngestBatch is the batch-level differential fuzz: any body handed
// to the zero-copy batched core and to the reference per-line
// implementation must produce identical accept/reject verdicts and
// reasons per line, identical stored bytes, and identical estimator
// feeds. FuzzIngestLine holds the two parsers equal on one line; this
// holds the whole pipeline — scanning, interning, shard regrouping,
// chunk flushing, error-list merging — equal on arbitrary batches.
func FuzzIngestBatch(f *testing.F) {
	for _, raw := range []string{
		"",
		"\n",
		"\r\n\r\n",
		`{"series":"a","ts":1,"value":1}`,
		"{\"series\":\"a\",\"ts\":1,\"value\":1}\n{\"series\":\"a\",\"ts\":2,\"value\":2}\n",
		// Same series split around a reject: the reject must not count the
		// series out (Series counts series with >=1 accepted point).
		"{\"series\":\"a\",\"ts\":5,\"value\":1}\n{\"series\":\"a\",\"ts\":3,\"value\":2}\n{\"series\":\"a\",\"ts\":9,\"value\":3}\n",
		// A series whose only point is rejected: not counted.
		"{\"series\":\"a\",\"ts\":5,\"value\":1}\n{\"series\":\"b\",\"ts\":7,\"value\":1}\nnot json\n{\"series\":\"b\",\"ts\":4,\"value\":2}\n",
		// Interleaved series, out-of-order inside one, blank separators,
		// CRLF framing, no trailing newline.
		"{\"series\":\"x\",\"ts\":1,\"value\":1}\r\n\r\n{\"series\":\"y\",\"ts\":1,\"value\":1}\r\n{\"series\":\"x\",\"ts\":0,\"value\":9}\r\n{\"series\":\"y\",\"ts\":2,\"value\":2}",
		// Fallback-path lines (escapes, reordered keys) mixed with fast.
		"{\"series\":\"esc\\\"aped\",\"ts\":1,\"value\":1}\n{\"value\":7,\"ts\":2,\"series\":\"esc\\\"aped\"}\n{\"series\":\"plain\",\"ts\":\"2026-07-01T00:00:00Z\",\"value\":3}\n",
		// More than maxIngestErrors failures: the detail list truncates at
		// five in line order.
		"a\nb\nc\nd\ne\nf\ng\n",
		"   \t  \n{\"series\":\"ws\",\"ts\":1,\"value\":1}\n\t\n",
	} {
		f.Add([]byte(raw))
	}
	// Hostile wire rounds as whole batches: churned ids, skewed stamps,
	// backfilled duplicates — each regime's round is one body.
	for _, name := range []string{"cardinality", "backfill", "clockskew", "podchurn"} {
		sc, err := dcsim.BuildScenario(name, 101, 4)
		if err != nil {
			f.Fatal(err)
		}
		g := dcsim.NewWireGen(sc, dcsim.WireConfig{SamplesPerRound: 8})
		for round := 0; round < 2; round++ {
			var body []byte
			for _, ws := range g.Round() {
				body = fmt.Appendf(body, "{\"series\":%q,\"ts\":%q,\"value\":%v}\n",
					ws.ID, ws.Time.Format("2006-01-02T15:04:05.999999999Z07:00"), ws.Value)
			}
			f.Add(body)
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64<<10 {
			return
		}
		runDiff(t, newDiffPair(), bytes.NewReader(raw), raw)
	})
}

// errReader yields its payload in small, randomly-sized reads so the
// scanner's buffer-compaction and partial-line paths run, then ends with
// a non-EOF error: the batched core must fold it into the response as a
// rejected line exactly like the per-line path.
type stutterReader struct {
	data []byte
	rng  *rand.Rand
	err  error
}

func (r *stutterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		if r.err != nil {
			return 0, r.err
		}
		return 0, io.EOF
	}
	n := 1 + r.rng.Intn(min(len(r.data), min(len(p), 37)))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestIngestBatchDifferentialLarge drives batches big enough to cross
// the core's chunk-flush threshold several times — the multi-chunk
// error-merge and estimator-run paths a fuzz-sized input can't reach —
// through stuttering reads, and holds them to the per-line oracle.
func TestIngestBatchDifferentialLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	clocks := map[int]int{}
	var sb strings.Builder
	for i := 0; i < 3*ingestFlushPoints+257; i++ {
		sid := rng.Intn(24)
		switch rng.Intn(20) {
		case 0: // late point -> strict-append reject
			fmt.Fprintf(&sb, "{\"series\":\"big/dev%02d\",\"ts\":%d,\"value\":%.3f}\n",
				sid, base.Unix()+int64(clocks[sid])-int64(1+rng.Intn(50)), rng.NormFloat64())
		case 1: // malformed
			sb.WriteString("{\"series\":\"big/dev\",\"ts\":}\n")
		case 2: // blank separator
			sb.WriteString("\r\n")
		case 3: // fallback path (reordered keys)
			clocks[sid] += 1 + rng.Intn(5)
			fmt.Fprintf(&sb, "{\"value\":%.3f,\"ts\":%d,\"series\":\"big/dev%02d\"}\n",
				rng.NormFloat64(), base.Unix()+int64(clocks[sid]), sid)
		default:
			clocks[sid] += 1 + rng.Intn(5)
			fmt.Fprintf(&sb, "{\"series\":\"big/dev%02d\",\"ts\":%d,\"value\":%.3f}\n",
				sid, base.Unix()+int64(clocks[sid]), rng.NormFloat64())
		}
	}
	raw := []byte(sb.String())
	runDiff(t, newDiffPair(), &stutterReader{data: raw, rng: rng}, raw)
}

// TestIngestBatchReadErrorParity: a mid-stream read failure surfaces as
// one rejected line (reason = the error text) at the next line number,
// after every complete line before it was processed — the per-line
// path's contract.
func TestIngestBatchReadErrorParity(t *testing.T) {
	raw := []byte("{\"series\":\"a\",\"ts\":1,\"value\":1}\n{\"series\":\"a\",\"ts\":2,\"value\":2}\n")
	boom := errors.New("connection torn mid-batch")
	d := newDiffPair()
	resp := IngestResponse{}
	var tally ingestTally
	if err := d.srv.runIngest(&stutterReader{data: raw, rng: rand.New(rand.NewSource(1)), err: boom}, &resp, &tally); err != nil {
		t.Fatalf("read errors must fold into the response, got %v", err)
	}
	if resp.Accepted != 2 || resp.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 2 accepted + 1 rejected read-error line", resp.Accepted, resp.Rejected)
	}
	if len(resp.Errors) != 1 || resp.Errors[0].Line != 3 || resp.Errors[0].Reason != boom.Error() {
		t.Fatalf("errors = %+v, want line 3 rejected with %q", resp.Errors, boom)
	}
	if tally.rejReadError != 1 {
		t.Fatalf("rejReadError = %d, want 1", tally.rejReadError)
	}
}
