// Wire clients. Every request is rendered before the clock starts, so
// while a segment is timed the generator only writes and reads: one
// keep-alive TCP connection per lane, no net/http client machinery.

package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
)

// ingestAck is the part of the daemon's IngestResponse (or bulk error
// frame) the driver checks.
type ingestAck struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Error    string `json:"error"`
}

// wrapFrame renders lines as one request on w's lane: a length-prefixed
// bulk frame, or a complete HTTP/1.1 POST.
func wrapFrame(w *workload, lines []byte) []byte {
	if !w.http {
		out := make([]byte, 4, 4+len(lines))
		binary.BigEndian.PutUint32(out, uint32(len(lines)))
		return append(out, lines...)
	}
	head := "POST /api/v1/ingest HTTP/1.1\r\nHost: nyquistd\r\nContent-Type: application/x-ndjson\r\nContent-Length: " +
		strconv.Itoa(len(lines)) + "\r\n\r\n"
	return append([]byte(head), lines...)
}

// getRequest renders a GET of pathAndQuery.
func getRequest(pathAndQuery string) []byte {
	return []byte("GET " + pathAndQuery + " HTTP/1.1\r\nHost: nyquistd\r\n\r\n")
}

// conn is one keep-alive connection to the daemon, bulk or HTTP.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// roundTripHTTP writes one rendered request and reads the whole
// response. The body stays valid until the next call.
func (c *conn) roundTripHTTP(req []byte) (status int, body []byte, err error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.body.Bytes(), err
}

// roundTripBulk writes one length-prefixed frame and reads its
// length-prefixed answer.
func (c *conn) roundTripBulk(frame []byte) ([]byte, error) {
	if _, err := c.c.Write(frame); err != nil {
		return nil, err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	c.body.Reset()
	if _, err := io.CopyN(&c.body, c.br, int64(binary.BigEndian.Uint32(hdr[:]))); err != nil {
		return nil, err
	}
	return c.body.Bytes(), nil
}

// ingest sends one wrapped frame on w's lane and checks the answer: all
// lines accepted, none rejected. A refused or short-counted frame is a
// failed operation.
func (c *conn) ingest(w *workload, frame []byte) error {
	var body []byte
	if w.http {
		status, b, err := c.roundTripHTTP(frame)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("ingest: HTTP %d: %s", status, bytes.TrimSpace(b))
		}
		body = b
	} else {
		b, err := c.roundTripBulk(frame)
		if err != nil {
			return err
		}
		body = b
	}
	var ack ingestAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("ingest: bad answer %q: %w", body, err)
	}
	if ack.Error != "" || ack.Accepted != w.frameLines() || ack.Rejected != 0 {
		return fmt.Errorf("ingest: sent %d lines, answer %s", w.frameLines(), bytes.TrimSpace(body))
	}
	return nil
}

// get fetches pathAndQuery and requires a 200.
func (c *conn) get(pathAndQuery string) ([]byte, error) {
	status, body, err := c.roundTripHTTP(getRequest(pathAndQuery))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", pathAndQuery, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", pathAndQuery, status, bytes.TrimSpace(body))
	}
	return body, nil
}

// getJSON fetches pathAndQuery and decodes the answer into v.
func (c *conn) getJSON(pathAndQuery string, v any) error {
	body, err := c.get(pathAndQuery)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", pathAndQuery, err)
	}
	return nil
}
