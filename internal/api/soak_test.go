package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/tsdb"
)

// TestIngestSoakConservation is the concurrency soak for the batched
// ingest path, meant to run under -race: HTTP and bulk-lane writers
// pound disjoint series families while ?match= readers sweep the read
// path and a background goroutine force-seals mid-soak. At the end
// the books must balance exactly — every line a writer sent is accounted
// accepted or rejected in its response, the store's append counter
// equals the sum of accepted responses, and the metrics registry agrees
// with both. A lost update anywhere in the pooled-batch plumbing (a
// scratch buffer shared across requests, a verdict written after the
// chunk recycled) shows up as either a race report or a conservation
// gap.
func TestIngestSoakConservation(t *testing.T) {
	const (
		httpWriters = 3
		bulkWriters = 2
		readers     = 2
		batches     = 12
		batchLines  = 300
	)
	srv := ingestServer(monitor.IngestConfig{WindowSamples: 64, EmitEvery: 8})
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bln.Close()
	go srv.ServeBulk(bln)

	var (
		sentLines, gotAccepted, gotRejected atomic.Int64
		writers, aux                        sync.WaitGroup
		stop                                = make(chan struct{})
	)
	// Each writer owns a disjoint series family with its own ascending
	// clock; every 25th line rewinds to draw a deterministic strict-append
	// reject, so the rejected leg of the conservation law is exercised —
	// not just the happy path.
	makeBatch := func(lane string, w, round int) string {
		var sb strings.Builder
		base := apiStart.Add(time.Duration(round*batchLines) * time.Second)
		for i := 0; i < batchLines; i++ {
			ts := base.Add(time.Duration(i) * time.Second)
			if i%25 == 24 {
				ts = ts.Add(-time.Hour)
			}
			fmt.Fprintf(&sb, "{\"series\":\"soak/%s%d/dev%02d\",\"ts\":%d,\"value\":%d.5}\n",
				lane, w, i%8, ts.Unix(), i)
		}
		return sb.String()
	}

	for w := 0; w < httpWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for round := 0; round < batches; round++ {
				body := makeBatch("h", w, round)
				resp, err := http.Post(hts.URL+"/api/v1/ingest", "application/x-ndjson", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out IngestResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Errorf("http writer %d: decode: %v", w, err)
					return
				}
				sentLines.Add(batchLines)
				gotAccepted.Add(int64(out.Accepted))
				gotRejected.Add(int64(out.Rejected))
			}
		}(w)
	}
	for w := 0; w < bulkWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			conn, err := net.Dial("tcp", bln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			var hdr [4]byte
			for round := 0; round < batches; round++ {
				body := makeBatch("b", w, round)
				binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
				if _, err := conn.Write(hdr[:]); err != nil {
					t.Error(err)
					return
				}
				if _, err := io.WriteString(conn, body); err != nil {
					t.Error(err)
					return
				}
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					t.Error(err)
					return
				}
				rb := make([]byte, binary.BigEndian.Uint32(hdr[:]))
				if _, err := io.ReadFull(conn, rb); err != nil {
					t.Error(err)
					return
				}
				var out IngestResponse
				if err := json.Unmarshal(rb, &out); err != nil {
					t.Errorf("bulk writer %d: decode %q: %v", w, rb, err)
					return
				}
				sentLines.Add(batchLines)
				gotAccepted.Add(int64(out.Accepted))
				gotRejected.Add(int64(out.Rejected))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(hts.URL + "/api/v1/query?match=soak/*&max_points=500")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				srv.store.SealAll()
			}
		}
	}()

	writers.Wait()
	close(stop)
	aux.Wait()
	if t.Failed() {
		return
	}

	wantLines := int64((httpWriters + bulkWriters) * batches * batchLines)
	if got := gotAccepted.Load() + gotRejected.Load(); got != wantLines {
		t.Fatalf("conservation broke: %d lines sent, responses account %d (accepted %d + rejected %d)",
			wantLines, got, gotAccepted.Load(), gotRejected.Load())
	}
	if appends := srv.store.Stats().Appends; appends != gotAccepted.Load() {
		t.Fatalf("store Appends = %d, responses accepted %d", appends, gotAccepted.Load())
	}
	if v := srv.metrics.ingestAccepted.Value(); v != gotAccepted.Load() {
		t.Fatalf("metrics accepted counter = %d, responses accepted %d", v, gotAccepted.Load())
	}
	if v := srv.metrics.ingestRejected.Value(); v != gotRejected.Load() {
		t.Fatalf("metrics rejected counter = %d, responses rejected %d", v, gotRejected.Load())
	}
	if v := srv.metrics.bulkFrames.Value(); v != int64(bulkWriters*batches) {
		t.Fatalf("bulk frames = %d, want %d", v, bulkWriters*batches)
	}
}

// TestBulkLaneProtocol pins the frame protocol edges the soak's happy
// path never hits: an oversize frame draws an error response and a
// closed connection; a not-ready server answers every frame with the
// replay error but keeps the connection; an empty frame is a no-op ping.
func TestBulkLaneProtocol(t *testing.T) {
	srv := NewServer(Config{
		Store: tsdb.New(tsdb.Config{Shards: 2,
			Retention: tsdb.RetentionConfig{RawCapacity: 64}}),
		MaxBodyBytes: 256,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.ServeBulk(ln)

	dial := func() net.Conn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	sendFrame := func(c net.Conn, payload []byte) (map[string]any, error) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		if _, err := c.Write(hdr[:]); err != nil {
			return nil, err
		}
		if _, err := c.Write(payload); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return nil, err
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(c, body); err != nil {
			return nil, err
		}
		out := map[string]any{}
		return out, json.Unmarshal(body, &out)
	}

	// Happy path + empty ping on one connection.
	c := dial()
	out, err := sendFrame(c, []byte("{\"series\":\"p/a\",\"ts\":1,\"value\":1}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if out["accepted"] != float64(1) {
		t.Fatalf("accepted = %v, want 1", out["accepted"])
	}
	if out, err = sendFrame(c, nil); err != nil || out["accepted"] != float64(0) {
		t.Fatalf("empty frame: %v %v", out, err)
	}

	// Oversize frame: error response, then close.
	c2 := dial()
	out, err = sendFrame(c2, bytes.Repeat([]byte("x"), 300))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out["error"]; !ok {
		t.Fatalf("oversize frame answered %v, want an error", out)
	}
	if _, err := sendFrame(c2, []byte("{}\n")); err == nil {
		t.Fatal("connection survived an oversize frame, want close")
	}

	// Not-ready server: error per frame, connection stays.
	srv.SetReady(false)
	c3 := dial()
	for i := 0; i < 2; i++ {
		out, err = sendFrame(c3, []byte("{\"series\":\"p/a\",\"ts\":2,\"value\":1}\n"))
		if err != nil {
			t.Fatalf("frame %d while not ready: %v", i, err)
		}
		if es, _ := out["error"].(string); !strings.Contains(es, "WAL replay") {
			t.Fatalf("not-ready answer = %v, want replay error", out)
		}
	}
	srv.SetReady(true)
	if out, err = sendFrame(c3, []byte("{\"series\":\"p/a\",\"ts\":3,\"value\":1}\n")); err != nil || out["accepted"] != float64(1) {
		t.Fatalf("after ready: %v %v", out, err)
	}
}
