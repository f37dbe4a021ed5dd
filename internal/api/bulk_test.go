package api

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
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
