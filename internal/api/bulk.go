// The plain-TCP bulk ingest lane (nyquistd -bulk-addr): the same
// JSON-lines batches as POST /api/v1/ingest, each framed with a 4-byte
// big-endian length and answered in order by one length-prefixed
// IngestResponse, or {"error": "..."} for a frame refused whole, over one
// long-lived connection (docs/API.md "Bulk lane" is the protocol). It
// strips HTTP's per-request tax from high-rate pushers; each frame is read
// by the ingest core's one entry (runIngest, ingest.go) as an HTTP body is,
// so both lanes share one buffer policy, accounting and metrics inventory.

package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// bulkReadBuffer sizes each connection's buffered reader, which with its
// 4 KiB writer is all a connection holds between frames.
const bulkReadBuffer = 64 << 10

// bulkFrameDeadline bounds one frame's exchange: from the arrival of its
// header's first byte, the rest of the header and the declared payload
// must be read and the response written within this long, or the
// connection is dropped — a peer that sends part of a header, or declares
// 8 MiB and trickles, would otherwise pin its buffer and the goroutine
// forever. 30 s for the largest frame is ≈ 280 KB/s, far below any link a
// bulk pusher uses. Waiting for the next frame's first byte carries no
// deadline: an idle connection between frames is legal.
const bulkFrameDeadline = 30 * time.Second

// ServeBulk accepts bulk-lane connections on ln until the listener
// closes, serving each connection on its own goroutine. Closing ln is
// the shutdown signal: in-flight frames finish, and ServeBulk returns
// nil.
func (s *Server) ServeBulk(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveBulkConn(conn)
	}
}

func (s *Server) serveBulkConn(conn net.Conn) {
	s.metrics.bulkConns.Add(1)
	defer s.metrics.bulkConns.Add(-1)
	defer conn.Close()
	var (
		hdr [4]byte
		out bytes.Buffer
		rd  = bufio.NewReaderSize(conn, bulkReadBuffer)
		wr  = bufio.NewWriterSize(conn, 4<<10)
	)
	for {
		// EOF on a frame boundary is the clean hangup; anything else
		// (reset) has no recovery either way.
		if _, err := io.ReadFull(rd, hdr[:1]); err != nil {
			return
		}
		// One deadline covers the rest of the header, the payload read and
		// the response write; it is lifted once the response is out.
		if conn.SetDeadline(time.Now().Add(s.bulkFrameTimeout)) != nil {
			return
		}
		if _, err := io.ReadFull(rd, hdr[1:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if int64(n) > s.cfg.MaxBodyBytes {
			// Mirror of HTTP's 413. The payload was never read, so the
			// stream offset is unknown from here: answer and hang up.
			s.writeBulkFrame(wr, &out, errorBody{Error: fmt.Sprintf(
				"frame exceeds %d bytes; split the batch", s.cfg.MaxBodyBytes)})
			wr.Flush()
			return
		}
		var reply any
		if !s.ready.Load() {
			// Same gate as the HTTP data endpoints (middleware.go): no
			// writes land while the WAL replays. The connection survives —
			// the pusher retries the frame.
			if _, err := rd.Discard(int(n)); err != nil {
				return
			}
			reply = errorBody{Error: "starting: WAL replay in progress, retry shortly"}
		} else {
			// Every line-level failure is inside resp; a frame that ends
			// short lands nothing.
			resp := IngestResponse{}
			var tally ingestTally
			if s.runIngest(rd, int64(n), &resp, &tally) != nil {
				return
			}
			tally.flush(s.metrics)
			reply = resp
		}
		s.metrics.bulkFrames.Inc()
		s.metrics.bulkBytes.Add(int64(n))
		if s.writeBulkFrame(wr, &out, reply) != nil || wr.Flush() != nil || conn.SetDeadline(time.Time{}) != nil {
			return
		}
	}
}

// writeBulkFrame encodes v as one length-prefixed JSON response frame.
// An encode failure is counted like an HTTP response-write failure — it
// cannot be reported to this client either.
func (s *Server) writeBulkFrame(w io.Writer, buf *bytes.Buffer, v any) error {
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.metrics.httpWriteErrs.Inc()
		return err
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	_, err := w.Write(b)
	return err
}
