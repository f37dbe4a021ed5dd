// The batched ingest core shared by POST /api/v1/ingest and the plain-TCP
// bulk lane (bulk.go): an in-memory zero-copy line scanner feeding
// tsdb.DB.AppendBatch that allocates nothing per point in the steady
// state (repeat series, numeric timestamps):
//
//   - An HTTP body or a bulk frame is read whole into a pooled buffer,
//     grown as its bytes arrive up to its bound, and scanned where it
//     lies. The fast parser (fastline.go) yields the series name as a
//     subslice and the timestamp and value as scalars; a window of
//     cores.Floor lines or more is parsed on every core.
//   - Series ids are resolved in line order on the caller and interned in
//     a per-handler table, so a repeat series costs one map lookup.
//   - Points accumulate into a chunk that flushes through AppendBatch (one
//     shard-lock acquisition per shard per chunk) and then feeds the
//     estimator in per-series runs (IngestEstimator.Admit).
//
// accepted+rejected = emitted lines, a store-rejected point never feeds
// the estimator, reject reasons and the first-five error detail match the
// per-line path line for line (FuzzIngestBatch holds the two equal),
// per-series arrival order is preserved end to end, and bytes past the
// MaxBodyBytes cutoff are dropped together with the line they cut.

package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cores"
	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

const (
	// maxLineBytes bounds one line; longer lines are rejected
	// individually — the rest of the batch still lands.
	maxLineBytes = 1 << 20
	// ingestReadChunk is a payload buffer's first size.
	ingestReadChunk = 64 << 10
	// ingestFlushPoints caps the pending chunk: parsed points flush
	// through AppendBatch at this size, bounding both batch memory and
	// shard-lock hold times.
	ingestFlushPoints = 4096
	// ingestKeepBytes is the largest payload buffer a pooled batch keeps, a
	// chunk's lines at 128 B: a 4,096-line frame of 66 B lines (270,336 B)
	// keeps its buffer, an outlier's is shed. All else a batch holds is
	// bounded by ingestFlushPoints.
	ingestKeepBytes = ingestFlushPoints * 128
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

// lineKind is what a parse share made of one line.
type lineKind uint8

const (
	lineBlank    lineKind = iota
	lineFast              // a point, its series name at the slot's [lo, hi)
	lineFallback          // a point encoding/json parsed, its name as the ID
	lineTooLong           // a reject, its reason lineTooLongReason
	lineBadJSON           // a reject, its reason as the point's Err
	lineBadShape          // a reject, its reason as the point's Err
)

// lineSlot is one line of a parse window. The caller sets [lo, hi) to the
// line's bytes; the share that parses it sets the kind and, for a
// fast-parsed point, narrows [lo, hi) to the series name. The point (or a
// reject's reason) goes to the chunk's spare point at the same index.
type lineSlot struct {
	lo, hi int
	kind   lineKind
}

// window is one parse job: lines of a payload, parsed in shares.
type window struct {
	data  []byte
	slots []lineSlot
	pts   []tsdb.BatchPoint // the chunk's spare points, one per slot
	next  atomic.Int64      // the first line no share has taken
}

// ingestBatch is the pooled per-request state: the body buffer, the parse
// window, the pending chunk, and the per-batch series index. Everything
// is reused across requests; steady state allocates nothing here.
type ingestBatch struct {
	buf     []byte
	win     window
	pts     []tsdb.BatchPoint
	meta    []pointMeta
	rejects []lineReject
	sids    map[string]int32
	series  []batchSeries
	lastSid int32 // the previous fast-parsed line's, tried first
	// estimator-run scratch: the accepted points' indexes counting-sorted
	// by sid, and the admitted runs.
	sidCounts []int32
	sidOffs   []int32
	order     []int32
	runs      []monitor.Run
	nextRun   atomic.Int64 // the first run no share has taken
	wg        sync.WaitGroup
}

var ingestBatchPool = sync.Pool{New: func() any {
	return &ingestBatch{sids: make(map[string]int32)}
}}

func putIngestBatch(b *ingestBatch) {
	if cap(b.buf) > ingestKeepBytes {
		b.buf = nil
	}
	b.win.data, b.win.pts = nil, nil // drop the payload
	clear(b.pts)                     // drop string references before pooling
	b.pts = b.pts[:0]
	b.meta = b.meta[:0]
	clear(b.rejects)
	b.rejects = b.rejects[:0]
	clear(b.sids)
	clear(b.series)
	b.series = b.series[:0]
	ingestBatchPool.Put(b)
}

func (b *ingestBatch) addReject(line int32, reason string) {
	b.rejects = append(b.rejects, lineReject{line: line, reason: reason})
}

// sidFor resolves a series name (as raw bytes into the payload) to its
// per-batch index, interning the id on first sight. Repeat series — the
// steady state — cost one allocation-free map lookup.
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

// readBody reads body into b.buf until its end or its first error, or
// until limit bytes have arrived, which returns a nil error. The buffer
// doubles as bytes arrive but never grows past limit. 100 reads in a row
// that return nothing are io.ErrNoProgress.
func (b *ingestBatch) readBody(body io.Reader, limit int) ([]byte, error) {
	data, zeroReads := b.buf[:0], 0
	for len(data) < limit {
		if len(data) == cap(data) {
			//nyquist:allow-alloc the buffer doubles up to the payload's bound (-max-body, or a frame's declared length), and one over ingestKeepBytes is shed after use
			grown := make([]byte, len(data), min(max(2*cap(data), ingestReadChunk), limit))
			copy(grown, data)
			data, b.buf = grown, grown
		}
		n, err := body.Read(data[len(data):min(cap(data), limit)])
		data = data[:len(data)+n]
		if n == 0 && err == nil {
			if zeroReads++; zeroReads > 100 {
				err = io.ErrNoProgress
			}
		} else if n > 0 {
			zeroReads = 0
		}
		if err != nil && len(data) < limit {
			return data, err
		}
	}
	return data, nil
}

// runIngest is both lanes' one entry: it reads one JSON-lines payload into
// a pooled batch, then scans, parses, batch-appends, estimates and
// accounts it. A bulk frame passes its declared length as frame, the
// read's bound; a frame that ends short lands nothing and its read error
// is returned. An HTTP body passes frame −1: http.MaxBytesReader bounds it,
// and only its limit error is returned (the handler's 413 contract); every
// other read failure is folded into the response as a rejected line,
// exactly like the per-line path did. Either way the body's complete lines
// before the failure land and the partial line it cut off is dropped.
//
//nyquist:hotpath
func (s *Server) runIngest(body io.Reader, frame int64, resp *IngestResponse, tally *ingestTally) error {
	b := ingestBatchPool.Get().(*ingestBatch)
	defer putIngestBatch(b)
	limit := s.cfg.MaxBodyBytes + 1 // http.MaxBytesReader reads a byte past its limit to tell
	if frame >= 0 {
		limit = frame
	}
	data, err := b.readBody(body, int(limit))
	if frame >= 0 && err != nil {
		return err
	}
	tally.bytes += int64(len(data))
	var readErr error
	if err == io.EOF {
		err = nil
	} else if err != nil {
		data = data[:bytes.LastIndexByte(data, '\n')+1]
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			readErr, err = err, nil
		}
	}
	s.ingestPayload(b, data, readErr, resp, tally)
	return err
}

// ingestPayload lands every line of data (the last may lack its newline),
// then readErr, if any, as one more rejected line. A window of lines holds
// no more lines than the chunk has room for points, so the chunk flushes
// exactly where a line-by-line loop would. Its lines are parsed in shares;
// the caller takes their outcomes in line order, so ids are resolved in
// first-appearance order and rejects queued as that loop does.
func (s *Server) ingestPayload(b *ingestBatch, data []byte, readErr error, resp *IngestResponse, tally *ingestTally) {
	lines := 0
	for pos := 0; pos < len(data); {
		base, slots := len(b.pts), b.win.slots[:0]
		for len(slots) < ingestFlushPoints-base && pos < len(data) {
			end := len(data)
			if nl := bytes.IndexByte(data[pos:], '\n'); nl >= 0 {
				end = pos + nl
			}
			slots = append(slots, lineSlot{lo: pos, hi: end})
			pos = end + 1
		}
		b.pts = slices.Grow(b.pts, len(slots)) // room for the window's spare points
		b.win.data, b.win.slots, b.win.pts = data, slots, b.pts[base:base+len(slots)]
		b.win.next.Store(0)
		cores.Run(&b.win, cores.Shares(len(slots)), &b.wg)
		for i, sl := range slots {
			lines++
			s.takeLine(b, data, sl, &b.win.pts[i], int32(lines), tally)
		}
		if len(b.pts) >= ingestFlushPoints {
			s.flushChunk(b, resp, tally)
		}
	}
	if readErr != nil {
		lines++
		b.addReject(int32(lines), readErr.Error())
		tally.rejReadError++
	}
	s.flushChunk(b, resp, tally)
	for i := range b.series { // Series counts those that landed a point
		if b.series[i].accepted > 0 {
			resp.Series++
		}
	}
	tally.lines, tally.accepted, tally.rejected = int64(lines), int64(resp.Accepted), int64(resp.Rejected)
}

// parseBlock lines are one piece of a parse window: shares take the next
// untaken block, so a share whose helper starts late parses less.
const parseBlock = 128

// Share parses blocks of the window's lines into their slots: blank
// separator, too long, fast-parsed point, fallback-parsed point, or
// reject.
//
//nyquist:hotpath
func (win *window) Share(_, _ int) {
	for lo := int(win.next.Add(parseBlock)) - parseBlock; lo < len(win.slots); lo = int(win.next.Add(parseBlock)) - parseBlock {
		for i := lo; i < min(lo+parseBlock, len(win.slots)); i++ {
			sl := &win.slots[i]
			line := win.data[sl.lo:sl.hi]
			for n := len(line); n > 0 && line[n-1] == '\r'; n-- {
				line = line[:n-1]
			}
			switch {
			case len(line) > maxLineBytes:
				sl.kind = lineTooLong
			case len(line) == 0 || allSpace(line):
				sl.kind = lineBlank
			default:
				if fl, ok := fastParseLine(line); ok {
					sl.kind, sl.lo = lineFast, sl.lo+cap(line)-cap(fl.series) // a subslice's offset
					sl.hi = sl.lo + len(fl.series)
					win.pts[i].P = fl.point()
					continue
				}
				//nyquist:allow-alloc json fallback: a line the fast parser bails on pays encoding/json, validation and its reject reason
				sl.kind = parseFallback(line, &win.pts[i])
			}
		}
	}
}

// parseFallback is the parse's cold half: a line the fast parser bailed on
// goes through encoding/json and IngestLine.point, leaving in p the point
// with its series name as ID, or the reject's reason as Err.
func parseFallback(line []byte, p *tsdb.BatchPoint) lineKind {
	var in IngestLine
	if err := json.Unmarshal(line, &in); err != nil {
		p.Err = errors.New("bad JSON: " + err.Error())
		return lineBadJSON
	}
	pt, err := in.point()
	if err != nil {
		p.Err = err
		return lineBadShape
	}
	p.ID, p.P = in.Series, pt
	return lineFallback
}

// point is the line's sample: scalars that hold nothing of the line.
func (fl *fastLine) point() series.Point { return series.Point{Time: fl.t, Value: fl.value} }

// takeLine takes one parsed line, in line order: a point gets its series
// index (the previous fast-parsed line's, the batch's, or a new one) and
// joins the pending chunk; a reject is queued, in line order, so
// flushChunk can interleave it with store verdicts for the response's
// error detail.
func (s *Server) takeLine(b *ingestBatch, data []byte, sl lineSlot, p *tsdb.BatchPoint, lineNo int32, tally *ingestTally) {
	var sid int32
	switch sl.kind {
	case lineBlank:
		return
	case lineTooLong:
		b.addReject(lineNo, lineTooLongReason)
		tally.rejTooLong++
		return
	case lineBadJSON, lineBadShape:
		b.addReject(lineNo, p.Err.Error())
		tally.fallback++
		if sl.kind == lineBadJSON {
			tally.rejBadJSON++
		} else {
			tally.rejBadShape++
		}
		return
	case lineFallback:
		tally.fallback++
		sid = b.sidForString(s, p.ID)
	default:
		tally.fast++
		name := data[sl.lo:sl.hi]
		if sid = b.lastSid; int(sid) >= len(b.series) || b.series[sid].id != string(name) {
			sid = b.sidFor(s, name)
			b.lastSid = sid
		}
	}
	b.pts = b.pts[:len(b.pts)+1] // p is this spare point or a later one
	b.pts[len(b.pts)-1] = tsdb.BatchPoint{ID: b.series[sid].id, P: p.P}
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
	//nyquist:allow-alloc only a series' first sight and its interval probe allocate in the feed (and its index buffers, grown to the largest chunk); warm refreshes reuse estimator-owned state
	s.feedEstimator(b, resp, tally)
	b.pts = b.pts[:0]
	b.meta = b.meta[:0]
	b.rejects = b.rejects[:0]
}

// feedEstimator groups the chunk's accepted points into per-series runs
// (arrival order within each run, series in first-appearance order) and
// admits each, in that order. A run is a range of b.order, the accepted
// points' indexes counting-sorted by series, so no point is copied. A
// chunk of cores.Floor points or more where -max-series cannot bind is
// then observed on every core, each share taking the next unobserved run;
// otherwise each run
// is observed as it is admitted. Series are independent in the estimator
// and admission is serial, so drops, evictions and LRU stamps are the
// same either way — per request, unless a concurrent one fills the cap
// after the room check.
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
	clear(b.sidCounts)
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
	b.order = slices.Grow(b.order[:0], accepted)[:accepted]
	off := int32(0)
	for sid := range b.sidCounts {
		b.sidOffs[sid] = off
		off += b.sidCounts[sid]
	}
	for i := range b.pts {
		if b.pts[i].Err == nil {
			sid := b.meta[i].sid
			b.order[b.sidOffs[sid]] = int32(i)
			b.sidOffs[sid]++
		}
	}
	// With room under the cap for every series, admission drops or evicts none.
	n, limit := cores.Shares(accepted), s.ingest.Config().MaxSeries
	shared := n > 1 && (limit == 0 || s.ingest.Len()+nSids <= limit)
	start := 0
	for sid := 0; sid < nSids; sid++ {
		end := start + int(b.sidCounts[sid])
		if start == end {
			continue
		}
		r := s.ingest.Admit(b.series[sid].id, start, end)
		if d := r.Lo - start; d > 0 {
			resp.EstimatorDropped += d
			tally.estDropped += int64(d)
		}
		if shared {
			b.runs = append(b.runs, r)
		} else {
			r.Observe(b.pts, b.order)
		}
		start = end
	}
	if shared {
		b.nextRun.Store(0)
		cores.Run(b, n, &b.wg)
		clear(b.runs)
		b.runs = b.runs[:0]
	}
}

// Share observes the next untaken block of admitted runs, about an eighth
// of a share's, until none is left: few atomic adds for many short runs.
func (b *ingestBatch) Share(_, n int) {
	step := max(1, len(b.runs)/(8*n))
	for lo := int(b.nextRun.Add(int64(step))) - step; lo < len(b.runs); lo = int(b.nextRun.Add(int64(step))) - step {
		for _, r := range b.runs[lo:min(lo+step, len(b.runs))] {
			r.Observe(b.pts, b.order)
		}
	}
}
