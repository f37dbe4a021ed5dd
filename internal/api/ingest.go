// The batched ingest core shared by POST /api/v1/ingest and the plain-TCP
// bulk lane (bulk.go): a chunked zero-copy line scanner feeding
// tsdb.DB.AppendBatch. The old hot path paid per line — one ReadBytes
// allocation, one string materialization, one shard-lock round trip, one
// estimator lock — which profiling put ahead of the WAL as the ingest
// ceiling. The core restructures the path so the steady state (repeat
// series, numeric timestamps) allocates nothing per point:
//
//   - Lines are scanned in place against a pooled read buffer; the fast
//     parser (fastline.go) yields the series name as a subslice and the
//     timestamp/value as scalars, so nothing is copied per line.
//   - Series ids are interned in a per-handler (Server-scoped) table, so
//     a repeat series costs one allocation-free map lookup, ever.
//   - Parsed points accumulate into a chunk (arrival order) and flush
//     through AppendBatch: points grouped by FNV target shard, one
//     shard-lock acquisition per shard per chunk.
//   - Accepted points then feed the estimator in per-series runs
//     (IngestEstimator.ObserveRun): one series resolution per series per
//     chunk instead of per point.
//
// The accounting contract is unchanged: accepted+rejected = emitted
// lines, a store-rejected point never feeds the estimator, reject
// reasons and the first-five error detail match the per-line path
// line-for-line (FuzzIngestBatch holds the two implementations equal),
// and per-series arrival order is preserved end to end. One deliberate
// tightening: bytes past the MaxBodyBytes cutoff are dropped wholesale —
// the old path would parse (and could ingest) the truncated partial line
// at the limit boundary.

package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/cores"
	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

const (
	// maxLineBytes bounds one line; longer lines are rejected
	// individually — the rest of the batch still lands.
	maxLineBytes = 1 << 20
	// ingestReadChunk is the pooled read-buffer granularity; the buffer
	// grows (and is later shed) only when a single line exceeds it.
	ingestReadChunk = 64 << 10
	// ingestFlushPoints caps the pending chunk: parsed points flush
	// through AppendBatch at this size, bounding both batch memory and
	// shard-lock hold times.
	ingestFlushPoints = 4096
)

var lineTooLongReason = fmt.Sprintf("line exceeds %d bytes", maxLineBytes)

// maxInternedSeries caps the per-handler intern table (matching the
// estimator's default series cap). Ids beyond the cap still ingest —
// they just pay the string copy the table exists to avoid, so a hostile
// cardinality flood degrades to the old per-line cost instead of growing
// the table without bound.
const maxInternedSeries = 1 << 20

// interner is the per-handler series-id intern table. Lookups with a
// string(bytes) key compile to allocation-free map access; only the
// first sighting of an id materializes the string.
type interner struct {
	mu sync.RWMutex
	m  map[string]string
}

func (it *interner) intern(b []byte) string {
	it.mu.RLock()
	id, ok := it.m[string(b)]
	it.mu.RUnlock()
	if ok {
		return id
	}
	//nyquist:allow-alloc first sight of a series name pays one copy; every later hit returns the interned string
	return it.internString(string(b))
}

func (it *interner) internString(s string) string {
	it.mu.RLock()
	id, ok := it.m[s]
	it.mu.RUnlock()
	if ok {
		return id
	}
	it.mu.Lock()
	if id, ok = it.m[s]; !ok {
		id = s
		if len(it.m) < maxInternedSeries {
			it.m[s] = s
		}
	}
	it.mu.Unlock()
	return id
}

// pointMeta carries a pending point's provenance: its 1-based line
// number (for error reporting in line order) and its per-batch series
// index.
type pointMeta struct {
	line int32
	sid  int32
}

type lineReject struct {
	line   int32
	reason string
}

// batchSeries is one distinct series of the batch: its interned id and
// how many of its points the store accepted (the Series counter counts
// entries with accepted > 0, exactly like the per-line path's
// intern/un-intern dance did).
type batchSeries struct {
	id       string
	accepted int32
}

// ingestBatch is the pooled per-request state: the read buffer, the
// pending chunk, and the per-batch series index. Everything is reused
// across requests; steady state allocates nothing here.
type ingestBatch struct {
	buf     []byte
	pts     []tsdb.BatchPoint
	meta    []pointMeta
	rejects []lineReject
	sids    map[string]int32
	series  []batchSeries
	lastSid int32 // the previous fast-parsed line's, tried first
	// estimator-run scratch: a counting-sort by sid, and the admitted runs.
	sidCounts []int32
	sidOffs   []int32
	runbuf    []series.Point
	runs      []monitor.Run
	wg        sync.WaitGroup
}

var ingestBatchPool = sync.Pool{New: func() any {
	return &ingestBatch{
		buf:  make([]byte, ingestReadChunk),
		sids: make(map[string]int32),
	}
}}

func getIngestBatch() *ingestBatch { return ingestBatchPool.Get().(*ingestBatch) }

func putIngestBatch(b *ingestBatch) {
	// Shed request-sized growth (a single huge line) so the pool holds
	// only steady-state buffers.
	if len(b.buf) > 4*ingestReadChunk {
		//nyquist:allow-alloc shedding request-sized growth; steady-state batches reuse the pooled buffer
		b.buf = make([]byte, ingestReadChunk)
	}
	clear(b.pts) // drop string references before pooling
	b.pts = b.pts[:0]
	b.meta = b.meta[:0]
	clear(b.rejects)
	b.rejects = b.rejects[:0]
	clear(b.sids)
	clear(b.series)
	b.series = b.series[:0]
	b.runbuf = b.runbuf[:0]
	ingestBatchPool.Put(b)
}

func (b *ingestBatch) addReject(line int32, reason string) {
	b.rejects = append(b.rejects, lineReject{line: line, reason: reason})
}

// sidFor resolves a series name (as raw bytes into the read buffer) to
// its per-batch index, interning the id on first sight. Repeat series —
// the steady state — cost one allocation-free map lookup.
func (b *ingestBatch) sidFor(s *Server, name []byte) int32 {
	if sid, ok := b.sids[string(name)]; ok {
		return sid
	}
	return b.addSid(s.interned.intern(name))
}

func (b *ingestBatch) sidForString(s *Server, name string) int32 {
	if sid, ok := b.sids[name]; ok {
		return sid
	}
	return b.addSid(s.interned.internString(name))
}

func (b *ingestBatch) addSid(id string) int32 {
	sid := int32(len(b.series))
	b.series = append(b.series, batchSeries{id: id})
	b.sids[id] = sid
	return sid
}

// countSeries folds the per-batch series table into the response's
// Series counter: distinct series that landed at least one accepted
// point.
func (b *ingestBatch) countSeries(resp *IngestResponse) {
	for i := range b.series {
		if b.series[i].accepted > 0 {
			resp.Series++
		}
	}
}

// runIngest consumes one JSON-lines payload: scan, parse, batch-append,
// estimate, account. It returns only a body-limit error (the HTTP
// handler turns *http.MaxBytesError into the 413 contract); every other
// read failure is folded into the response as a rejected line, exactly
// like the per-line path did.
//
//nyquist:hotpath
func (s *Server) runIngest(body io.Reader, resp *IngestResponse, tally *ingestTally) error {
	b := getIngestBatch()
	defer putIngestBatch(b)
	var (
		lineNo     int
		start, end int
		readErr    error
		zeroReads  int
	)
	for {
		if end == len(b.buf) {
			if start > 0 {
				// Slide the partial line to the front; completed lines
				// were already consumed in place.
				copy(b.buf, b.buf[start:end])
				end -= start
				start = 0
			} else {
				// One line larger than the whole buffer: grow. Bounded in
				// practice by MaxBodyBytes — the same envelope the old
				// per-line ReadBytes accumulation had.
				//nyquist:allow-alloc grows only when one line exceeds the whole read buffer, bounded by MaxBodyBytes
				nb := make([]byte, 2*len(b.buf))
				copy(nb, b.buf[:end])
				b.buf = nb
			}
		}
		n, err := body.Read(b.buf[end:])
		end += n
		tally.bytes += int64(n)
		if n == 0 && err == nil {
			if zeroReads++; zeroReads > 100 {
				err = io.ErrNoProgress
			}
		} else if n > 0 {
			zeroReads = 0
		}
		for {
			nl := bytes.IndexByte(b.buf[start:end], '\n')
			if nl < 0 {
				break
			}
			line := b.buf[start : start+nl]
			start += nl + 1
			lineNo++
			s.ingestLine(b, line, int32(lineNo), tally)
			if len(b.pts) >= ingestFlushPoints {
				s.flushChunk(b, resp, tally)
			}
		}
		if start == end {
			start, end = 0, 0
		}
		if err != nil {
			readErr = err
			break
		}
	}
	if readErr == io.EOF {
		if end > start {
			// Final line without a trailing newline.
			lineNo++
			s.ingestLine(b, b.buf[start:end], int32(lineNo), tally)
		}
		readErr = nil
	} else {
		var tooLarge *http.MaxBytesError
		if !errors.As(readErr, &tooLarge) {
			lineNo++
			b.addReject(int32(lineNo), readErr.Error())
			tally.rejReadError++
			readErr = nil
		}
	}
	s.flushChunk(b, resp, tally)
	b.countSeries(resp)
	tally.lines, tally.accepted, tally.rejected = int64(lineNo), int64(resp.Accepted), int64(resp.Rejected)
	return readErr
}

// ingestLine classifies one physical line: blank separator, too long,
// fast-parsed point, fallback-parsed point, or reject. Points join the
// pending chunk; rejects are queued (in line order) so flushChunk can
// interleave them with store verdicts for the response's error detail.
func (s *Server) ingestLine(b *ingestBatch, line []byte, lineNo int32, tally *ingestTally) {
	for n := len(line); n > 0 && (line[n-1] == '\r' || line[n-1] == '\n'); n-- {
		line = line[:n-1]
	}
	switch {
	case len(line) > maxLineBytes:
		b.addReject(lineNo, lineTooLongReason)
		tally.rejTooLong++
	case len(line) == 0 || allSpace(line):
		// blank separator
	default:
		if fl, ok := fastParseLine(line); ok {
			tally.fast++
			sid := b.lastSid
			if int(sid) >= len(b.series) || b.series[sid].id != string(fl.series) {
				sid = b.sidFor(s, fl.series)
				b.lastSid = sid
			}
			b.pts = append(b.pts, tsdb.BatchPoint{ID: b.series[sid].id, P: series.Point{Time: fl.t, Value: fl.value}})
			b.meta = append(b.meta, pointMeta{line: lineNo, sid: sid})
			return
		}
		//nyquist:allow-alloc json fallback: a line the fast parser bails on pays encoding/json, validation and its reject reason
		s.ingestLineFallback(b, line, lineNo, tally)
	}
}

// ingestLineFallback is ingestLine's cold half: a line the fast parser
// bailed on goes through encoding/json and IngestLine.point, and joins
// the pending chunk or the rejects exactly as a fast-parsed one would.
func (s *Server) ingestLineFallback(b *ingestBatch, line []byte, lineNo int32, tally *ingestTally) {
	tally.fallback++
	var in IngestLine
	if jerr := json.Unmarshal(line, &in); jerr != nil {
		b.addReject(lineNo, "bad JSON: "+jerr.Error())
		tally.rejBadJSON++
		return
	}
	p, perr := in.point()
	if perr != nil {
		b.addReject(lineNo, perr.Error())
		tally.rejBadShape++
		return
	}
	sid := b.sidForString(s, in.Series)
	b.pts = append(b.pts, tsdb.BatchPoint{ID: b.series[sid].id, P: p})
	b.meta = append(b.meta, pointMeta{line: lineNo, sid: sid})
}

// flushChunk lands the pending chunk: one AppendBatch (per-shard lock
// batching), verdict accounting merged with parse rejects in line order,
// then per-series estimator runs over the accepted points. An append the
// store refuses is a rejected line, not an accepted one, and never feeds
// the estimator: an out-of-order point that never landed would otherwise
// count as Accepted and still poison the series' interval probe.
func (s *Server) flushChunk(b *ingestBatch, resp *IngestResponse, tally *ingestTally) {
	if len(b.pts) == 0 && len(b.rejects) == 0 {
		return
	}
	s.store.AppendBatch(b.pts)
	// Merge parse rejects and store verdicts in line order so the
	// first-maxIngestErrors error detail matches the per-line path.
	ri := 0
	for i := range b.pts {
		line := b.meta[i].line
		for ri < len(b.rejects) && b.rejects[ri].line < line {
			resp.reject(int(b.rejects[ri].line), b.rejects[ri].reason)
			ri++
		}
		if err := b.pts[i].Err; err != nil {
			resp.reject(int(line), appendReason(err))
			switch {
			case errors.Is(err, tsdb.ErrOutOfOrder):
				tally.rejOutOfOrder++
			case errors.Is(err, tsdb.ErrTimeRange):
				tally.rejTimeRange++
			default:
				tally.rejStoreOther++
			}
		} else {
			resp.Accepted++
			b.series[b.meta[i].sid].accepted++
		}
	}
	for ; ri < len(b.rejects); ri++ {
		resp.reject(int(b.rejects[ri].line), b.rejects[ri].reason)
	}
	//nyquist:allow-alloc only a series' first sight and its interval probe allocate in the feed (and its run buffers, grown to the largest chunk); warm refreshes reuse estimator-owned state
	s.feedEstimator(b, resp, tally)
	b.pts = b.pts[:0]
	b.meta = b.meta[:0]
	b.rejects = b.rejects[:0]
}

// feedEstimator groups the chunk's accepted points into per-series runs
// (arrival order within each run, series in first-appearance order) and
// admits each, in that order. A chunk of cores.Floor points or more where
// -max-series cannot bind is then observed on every core, run i in share
// i mod n; otherwise each run is observed as it is admitted (ObserveRun).
// Series are independent in the estimator and admission is serial, so
// drops, evictions and LRU stamps are the same either way — per request,
// unless a concurrent one fills the cap after the room check.
func (s *Server) feedEstimator(b *ingestBatch, resp *IngestResponse, tally *ingestTally) {
	nSids := len(b.series)
	if nSids == 0 {
		return
	}
	if cap(b.sidCounts) < nSids {
		b.sidCounts = make([]int32, nSids)
		b.sidOffs = make([]int32, nSids)
	}
	b.sidCounts = b.sidCounts[:nSids]
	b.sidOffs = b.sidOffs[:nSids]
	for i := range b.sidCounts {
		b.sidCounts[i] = 0
	}
	accepted := 0
	for i := range b.pts {
		if b.pts[i].Err == nil {
			b.sidCounts[b.meta[i].sid]++
			accepted++
		}
	}
	if accepted == 0 {
		return
	}
	if cap(b.runbuf) < accepted {
		b.runbuf = make([]series.Point, accepted)
	}
	b.runbuf = b.runbuf[:accepted]
	off := int32(0)
	for sid := range b.sidCounts {
		b.sidOffs[sid] = off
		off += b.sidCounts[sid]
	}
	for i := range b.pts {
		if b.pts[i].Err == nil {
			sid := b.meta[i].sid
			b.runbuf[b.sidOffs[sid]] = b.pts[i].P
			b.sidOffs[sid]++
		}
	}
	// With room under the cap for every series, admission drops or evicts none.
	n, limit := cores.Shares(accepted), s.ingest.Config().MaxSeries
	shared := n > 1 && (limit == 0 || s.ingest.Len()+nSids <= limit)
	start := int32(0)
	for sid := 0; sid < nSids; sid++ {
		end := start + b.sidCounts[sid]
		if start == end {
			continue
		}
		r := s.ingest.Admit(b.series[sid].id, b.runbuf[start:end])
		if d := int(end-start) - len(r.Pts); d > 0 {
			resp.EstimatorDropped += d
			tally.estDropped += int64(d)
		}
		if shared {
			b.runs = append(b.runs, r)
		} else {
			r.Observe()
		}
		start = end
	}
	if shared {
		cores.Run(b, n, &b.wg)
		clear(b.runs)
		b.runs = b.runs[:0]
	}
}

// Share observes the admitted runs i ≡ w (mod n).
func (b *ingestBatch) Share(w, n int) {
	for i := w; i < len(b.runs); i += n {
		b.runs[i].Observe()
	}
}
