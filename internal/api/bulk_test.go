package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// bulkExchange sends one frame and returns the decoded response frame.
func bulkExchange(t *testing.T, conn net.Conn, body string) IngestResponse {
	t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	if _, err := conn.Write(append(frame, body...)); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	rb := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, rb); err != nil {
		t.Fatal(err)
	}
	var out IngestResponse
	if err := json.Unmarshal(rb, &out); err != nil {
		t.Fatalf("decode %q: %v", rb, err)
	}
	return out
}

// TestBulkLaneSlowPeer plays the lying peer: a header that declares a
// megabyte, one byte of payload, then silence — or two bytes of a header,
// then silence. The server must give the frame up at its deadline — connection closed, buffer and goroutine
// released, nyquistd_bulk_connections back at 0 — instead of waiting for
// the rest forever. An idle connection between frames is not a slow
// frame: it outlives the same deadline and its next frame is served.
func TestBulkLaneSlowPeer(t *testing.T) {
	srv := NewServer(Config{})
	srv.bulkFrameTimeout = 50 * time.Millisecond

	serve := func() (client net.Conn, done chan struct{}) {
		client, server := net.Pipe()
		done = make(chan struct{})
		go func() {
			srv.serveBulkConn(server)
			close(done)
		}()
		t.Cleanup(func() { client.Close() })
		return client, done
	}

	lie := binary.BigEndian.AppendUint32(nil, 1<<20)
	for _, c := range []struct {
		name string
		sent []byte
	}{
		{"one payload byte", append(lie, '{')},
		{"half a header", lie[:2]},
	} {
		client, done := serve()
		if _, err := client.Write(c.sent); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: server still waiting on a frame whose peer went silent", c.name)
		}
		if _, err := client.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: read on the abandoned connection = %v, want io.EOF (closed by the server)", c.name, err)
		}
		if got := srv.metrics.bulkConns.Value(); got != 0 {
			t.Fatalf("%s: nyquistd_bulk_connections = %v after the slow peer was dropped, want 0", c.name, got)
		}
	}

	client, done := serve()
	const line = `{"series":"idle","ts":1753500000,"value":1}` + "\n"
	if out := bulkExchange(t, client, line); out.Accepted != 1 {
		t.Fatalf("first frame: %+v", out)
	}
	time.Sleep(4 * srv.bulkFrameTimeout)
	if out := bulkExchange(t, client, `{"series":"idle","ts":1753500001,"value":2}`+"\n"); out.Accepted != 1 {
		t.Fatalf("frame after an idle gap longer than the frame deadline: %+v", out)
	}
	client.Close()
	<-done
}

// TestBulkLaneKeepsSteadyFrameBuffer holds a pusher's back-to-back
// frames to one payload buffer. The frames are steady_bulk's shape — 64
// series × 64 consecutive samples, 4,096 lines of 66 B, 270,336 B, above
// 4 × bulkReadBuffer — so a buffer shed or regrown per frame would
// allocate at least the frame's bytes again every time.
func TestBulkLaneKeepsSteadyFrameBuffer(t *testing.T) {
	const frames = 20
	srv := NewServer(Config{})
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.serveBulkConn(server)
		close(done)
	}()
	defer func() { client.Close(); <-done }()
	// Whole frames are built up front and the responses read into one
	// buffer, so the client allocates nothing per exchange.
	framed := make([][]byte, frames+1)
	for f := range framed {
		var sb strings.Builder
		for sid := range 64 {
			for k := range 64 {
				fmt.Fprintf(&sb, "{\"series\":\"dash/rack%02d/dev%02d/temp\",\"ts\":%d,\"value\":%5.2f}\n",
					sid/8, sid%8, 1753500000+30*(64*f+k), 20+float64(k%70))
			}
		}
		framed[f] = append(binary.BigEndian.AppendUint32(nil, uint32(sb.Len())), sb.String()...)
	}
	size := len(framed[0]) - 4
	if size != 4096*66 || size <= 4*bulkReadBuffer {
		t.Fatalf("frame is %d bytes, want 4,096 × 66 B, above 4 × bulkReadBuffer", size)
	}
	resp := make([]byte, 64<<10)
	exchange := func(f []byte) {
		if _, err := client.Write(f); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, resp[:4]); err != nil {
			t.Fatal(err)
		}
		n := binary.BigEndian.Uint32(resp[:4])
		if _, err := io.ReadFull(client, resp[:n]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(resp[:n], []byte(`"accepted":4096,`)) {
			t.Fatalf("frame not wholly accepted: %s", resp[:n])
		}
	}
	exchange(framed[0])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, f := range framed[1:] {
		exchange(f)
	}
	runtime.ReadMemStats(&after)
	perFrame := int(after.TotalAlloc-before.TotalAlloc) / frames
	t.Logf("%d steady frames of %d bytes allocate %d bytes a frame", frames, size, perFrame)
	if raceEnabled {
		t.Skip("race build: its sync.Pool drops pooled buffers at random")
	}
	if perFrame >= size {
		t.Fatalf("a steady frame allocates %d bytes, want under its own %d: its buffer is not reused",
			perFrame, size)
	}
}

// TestBulkLaneIdleConnShedsLargeFrame holds the bulk lane to what its
// read buffer promises: a connection that once sent a frame larger than
// 4 × bulkReadBuffer drops that frame's buffer once it has idled for
// bulkIdleShed, and still serves its next frame. Each of conns
// connections sends one frame of blank lines and waits; the heap they
// hold must fall below half of a single frame's bytes.
func TestBulkLaneIdleConnShedsLargeFrame(t *testing.T) {
	const (
		conns = 8
		frame = 4 << 20
	)
	srv := NewServer(Config{})
	body := strings.Repeat("\n", frame)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	before := heap()
	clients := make([]net.Conn, conns)
	for i := range clients {
		client, server := net.Pipe()
		d := make(chan struct{})
		go func() {
			srv.serveBulkConn(server)
			close(d)
		}()
		defer func() { client.Close(); <-d }()
		if out := bulkExchange(t, client, body); out.Accepted != 0 || out.Rejected != 0 {
			t.Fatalf("a frame of blank lines: %+v", out)
		}
		clients[i] = client
	}
	time.Sleep(2 * bulkIdleShed) // past every connection's idle deadline
	held := heap() - before
	runtime.KeepAlive(body)
	t.Logf("%d idle connections after one %d-byte frame each hold %d heap bytes", conns, frame, held)
	if held > frame/2 {
		t.Fatalf("%d connections idle for %v hold %d heap bytes, want under half of one frame's %d",
			conns, 2*bulkIdleShed, held, frame)
	}
	for _, c := range clients {
		if out := bulkExchange(t, c, `{"series":"idle","ts":1753500000,"value":1}`+"\n"); out.Accepted+out.Rejected != 1 {
			t.Fatalf("frame after the buffer was shed: %+v", out)
		}
	}
}
