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

// heapInuse is the heap in use after a collection.
func heapInuse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestBulkLaneSlowPeer plays the lying peer: a header that declares a
// megabyte, one byte of payload or one whole line, then silence — or two
// bytes of a header, then silence. The server must give the frame up at
// its deadline — connection closed, buffer and goroutine released,
// nyquistd_bulk_connections back at 0, nothing of the frame landed —
// instead of waiting for the rest forever. Until then a liar's buffer
// holds what it sent, not what it declared: eight peers that each declare
// -max-body and send one byte hold under 1 MiB each. An idle connection
// between frames is not a slow frame: it outlives the same deadline and
// its next frame is served.
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
		{"one whole line", append(lie, `{"series":"torn","ts":1753500000,"value":1}`+"\n"...)},
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
		if ids := srv.store.IDs(); len(ids) != 0 {
			t.Fatalf("%s: a torn frame landed %v", c.name, ids)
		}
	}

	// Eight liars at once, on a server with the 30 s frame deadline. A
	// pipe write returns once the server has read it, so after the payload
	// byte the server is waiting inside the frame's read.
	liars := NewServer(Config{})
	const peers = 8
	before := heapInuse()
	dones := make([]chan struct{}, peers)
	clients := make([]net.Conn, peers)
	for i := range clients {
		client, server := net.Pipe()
		dones[i] = make(chan struct{})
		go func(done chan struct{}) {
			liars.serveBulkConn(server)
			close(done)
		}(dones[i])
		clients[i] = client
		if _, err := client.Write(binary.BigEndian.AppendUint32(nil, uint32(liars.cfg.MaxBodyBytes))); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write([]byte{'{'}); err != nil {
			t.Fatal(err)
		}
	}
	held := heapInuse() - before
	t.Logf("%d peers that each declared %d bytes and sent one hold %d heap bytes", peers, liars.cfg.MaxBodyBytes, held)
	if held >= peers<<20 {
		t.Fatalf("%d lying peers hold %d heap bytes, want under 1 MiB each", peers, held)
	}
	for i, c := range clients {
		c.Close()
		<-dones[i]
	}
	if got := liars.metrics.bulkConns.Value(); got != 0 {
		t.Fatalf("nyquistd_bulk_connections = %v after the liars hung up, want 0", got)
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
// series × 64 consecutive samples, 4,096 lines of 66 B, 270,336 B, within
// ingestKeepBytes — so a buffer shed or regrown per frame would allocate
// at least the frame's bytes again every time.
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
	if size != 4096*66 || size > ingestKeepBytes {
		t.Fatalf("frame is %d bytes, want 4,096 × 66 B, within ingestKeepBytes", size)
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

// TestBulkLaneIdleConnShedsLargeFrame holds the bulk lane to what a
// connection keeps between frames: its reader and writer, not the largest
// frame it sent. Each of conns connections sends one frame of blank lines
// larger than ingestKeepBytes; right after the responses, and again after
// each has sent small frames back to back, the heap they hold must stay
// under half of a single frame's bytes.
func TestBulkLaneIdleConnShedsLargeFrame(t *testing.T) {
	const (
		conns = 8
		frame = 4 << 20
	)
	srv := NewServer(Config{})
	body := strings.Repeat("\n", frame)
	before := heapInuse()
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
	check := func(after string) {
		t.Helper()
		held := heapInuse() - before
		runtime.KeepAlive(body)
		t.Logf("%d connections %s hold %d heap bytes", conns, after, held)
		if held > frame/2 {
			t.Fatalf("%d connections %s hold %d heap bytes, want under half of one frame's %d",
				conns, after, held, frame)
		}
	}
	check(fmt.Sprintf("right after one %d-byte frame each", frame))
	for k := range 16 {
		for _, c := range clients {
			if out := bulkExchange(t, c, fmt.Sprintf(`{"series":"busy","ts":%d,"value":1}`+"\n", 1753500000+k)); out.Accepted+out.Rejected != 1 {
				t.Fatalf("small frame after the large one: %+v", out)
			}
		}
	}
	check("after 16 small frames each")
}
