// Payload codec for WAL records and snapshot files: a tiny append-only
// binary format (uvarint/zigzag-varint scalars, length-prefixed byte
// strings, IEEE-754 bit patterns for floats). Framing, typing and
// integrity live in the segment layer (wal.go); this file only encodes
// and decodes payload bodies.

package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"time"
)

// errShortPayload is returned when a payload ends before its fields do.
var errShortPayload = errors.New("wal: truncated record payload")

// enc builds one record payload. The zero value is ready to use.
type enc struct {
	b []byte
}

func (e *enc) uvarint(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)    { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) f64(v float64)     { e.uvarint(math.Float64bits(v)) }
func (e *enc) nanos(t time.Time) { e.varint(t.UnixNano()) }
func (e *enc) bool(v bool) {
	if v {
		e.uvarint(1)
	} else {
		e.uvarint(0)
	}
}
func (e *enc) bytes(v []byte) {
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}
func (e *enc) str(v string) {
	e.uvarint(uint64(len(v)))
	e.b = append(e.b, v...)
}

// dec consumes one record payload. The first decode error sticks; check
// err() once at the end.
type dec struct {
	b    []byte
	fail error
}

func (d *dec) err() error { return d.fail }

func (d *dec) uvarint() uint64 {
	if d.fail != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail = errShortPayload
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint is binary.Varint's zigzag decoding over uvarint.
func (d *dec) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *dec) f64() float64            { return math.Float64frombits(d.uvarint()) }
func (d *dec) nanos() time.Time        { return time.Unix(0, d.varint()) }
func (d *dec) bool() bool              { return d.uvarint() != 0 }
func (d *dec) duration() time.Duration { return time.Duration(d.varint()) }

func (d *dec) bytes() []byte {
	n := d.uvarint()
	if d.fail != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail = errShortPayload
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) str() string { return string(d.bytes()) }
