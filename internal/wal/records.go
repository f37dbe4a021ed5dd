// Encoding of the individual record payloads: sealed-block and
// estimator-state records for the segment log, and the per-series
// retention snapshot records. Framing and integrity live in wal.go.

package wal

import (
	"fmt"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// blockRec is one sealed raw block of one series.
type blockRec struct {
	id  string
	blk tsdb.Block
}

func encodeBlockRec(e *enc, r blockRec) {
	e.str(r.id)
	e.uvarint(uint64(r.blk.Len()))
	e.bytes(r.blk.Data())
}

// appendBlock is the seal hook's append.
func (l *Log) appendBlock(id string, blk tsdb.Block) error {
	return l.appendRec(recBlock, func(e *enc) { encodeBlockRec(e, blockRec{id: id, blk: blk}) })
}

// decodeBlock reads one persisted block — point count, then payload —
// written at payload version ver. The payload is copied out of the replay
// buffer (the buffer is reused record to record, but a rebuilt Block
// retains its data slice for the life of the store); a version-1 payload
// gains the zero tag byte that makes it a version-2 XOR payload.
func decodeBlock(d *dec, ver uint64) (tsdb.Block, error) {
	n := int(d.uvarint())
	payload := d.bytes()
	if err := d.err(); err != nil {
		return tsdb.Block{}, err
	}
	data := make([]byte, 0, len(payload)+1)
	if ver == 1 {
		data = append(data, 0)
	}
	return tsdb.RebuildBlock(append(data, payload...), n)
}

func decodeBlockRec(payload []byte, ver uint64) (blockRec, error) {
	d := dec{b: payload}
	id := d.str()
	blk, err := decodeBlock(&d, ver)
	if err != nil {
		return blockRec{}, fmt.Errorf("block record for %q: %w", id, err)
	}
	return blockRec{id: id, blk: blk}, nil
}

// stateRec is one series' estimator tuning state plus the retention
// rate the store is currently tuned to. The record has no field of its
// own for st.HeldRate: the store's rate is the held rate, so decoding
// fills it from retentionHz.
type stateRec struct {
	st          monitor.IngestSeriesState
	retentionHz float64
}

func encodeStateRec(e *enc, r stateRec) {
	e.str(r.st.Series)
	e.varint(int64(r.st.Interval))
	e.varint(r.st.Samples)
	e.varint(int64(r.st.Reprobes))
	e.f64(r.st.NyquistRate)
	e.varint(int64(r.st.CleanStreak))
	e.f64(r.retentionHz)
}

func decodeStateRec(payload []byte) (stateRec, error) {
	d := dec{b: payload}
	r := stateRec{}
	r.st.Series = d.str()
	r.st.Interval = d.duration()
	r.st.Samples = d.varint()
	r.st.Reprobes = int(d.varint())
	r.st.NyquistRate = d.f64()
	r.st.CleanStreak = int(d.varint())
	r.retentionHz = d.f64()
	r.st.HeldRate = r.retentionHz
	return r, d.err()
}

// encodeSeriesSnap writes one tsdb.SeriesSnapshot.
func encodeSeriesSnap(e *enc, s tsdb.SeriesSnapshot) {
	e.str(s.ID)
	e.f64(s.NyquistRate)
	e.varint(int64(s.Gap))
	e.bool(s.HaveLast)
	if s.HaveLast {
		e.nanos(s.LastTime)
	}
	e.varint(s.Appends)
	e.varint(s.Compacted)
	e.varint(s.Dropped)
	e.uvarint(uint64(len(s.Raw)))
	for _, blk := range s.Raw {
		// The segment tag: true = compressed block, the only kind a
		// strict-append store holds (see decodeSeriesSnap).
		e.bool(true)
		e.uvarint(uint64(blk.Len()))
		e.bytes(blk.Data())
	}
	encodePoints(e, s.Active)
	e.uvarint(uint64(len(s.Tiers)))
	for _, t := range s.Tiers {
		e.varint(int64(t.Width))
		e.uvarint(uint64(len(t.Buckets)))
		for _, b := range t.Buckets {
			encodeBucket(e, b)
		}
		e.bool(t.Cur != nil)
		if t.Cur != nil {
			encodeBucket(e, *t.Cur)
		}
	}
}

// decodeSeriesSnap reads one series record of a snapshot whose blocks are
// at payload version ver.
func decodeSeriesSnap(payload []byte, ver uint64) (tsdb.SeriesSnapshot, error) {
	d := dec{b: payload}
	s := tsdb.SeriesSnapshot{}
	s.ID = d.str()
	s.NyquistRate = d.f64()
	s.Gap = d.duration()
	s.HaveLast = d.bool()
	if s.HaveLast {
		s.LastTime = d.nanos()
	}
	s.Appends = d.varint()
	s.Compacted = d.varint()
	s.Dropped = d.varint()
	nRaw := int(d.uvarint())
	for i := 0; i < nRaw && d.err() == nil; i++ {
		// The format's other tag marked a verbatim point segment — data
		// the codec had refused, which no strict-append store could write.
		if !d.bool() && d.err() == nil {
			return s, fmt.Errorf("snapshot series %q: raw segment %d is a verbatim point segment, which the store no longer holds", s.ID, i)
		}
		blk, err := decodeBlock(&d, ver)
		if d.err() != nil {
			break
		}
		if err != nil {
			return s, fmt.Errorf("snapshot series %q: %w", s.ID, err)
		}
		s.Raw = append(s.Raw, blk)
	}
	s.Active = decodePoints(&d)
	nTiers := int(d.uvarint())
	for k := 0; k < nTiers && d.err() == nil; k++ {
		t := tsdb.TierSnapshot{Width: d.duration()}
		nb := int(d.uvarint())
		for i := 0; i < nb && d.err() == nil; i++ {
			t.Buckets = append(t.Buckets, decodeBucket(&d))
		}
		if d.bool() {
			b := decodeBucket(&d)
			t.Cur = &b
		}
		s.Tiers = append(s.Tiers, t)
	}
	return s, d.err()
}

// encodePoints writes a point slice with delta-coded nanos (snapshot
// active tails are small; this is compactness without another codec).
func encodePoints(e *enc, pts []series.Point) {
	e.uvarint(uint64(len(pts)))
	prev := int64(0)
	for i, p := range pts {
		n := p.Time.UnixNano()
		if i == 0 {
			e.varint(n)
		} else {
			e.varint(n - prev)
		}
		prev = n
		e.f64(p.Value)
	}
}

func decodePoints(d *dec) []series.Point {
	n := int(d.uvarint())
	if n == 0 || d.err() != nil {
		return nil
	}
	out := make([]series.Point, 0, n)
	nano := int64(0)
	for i := 0; i < n && d.err() == nil; i++ {
		if i == 0 {
			nano = d.varint()
		} else {
			nano += d.varint()
		}
		out = append(out, series.Point{Time: time.Unix(0, nano), Value: d.f64()})
	}
	return out
}

func encodeBucket(e *enc, b tsdb.BucketSnapshot) {
	e.nanos(b.Start)
	e.varint(b.End.UnixNano() - b.Start.UnixNano())
	e.f64(b.Min)
	e.f64(b.Max)
	e.f64(b.Sum)
	e.varint(b.Count)
}

func decodeBucket(d *dec) tsdb.BucketSnapshot {
	b := tsdb.BucketSnapshot{}
	b.Start = d.nanos()
	b.End = b.Start.Add(d.duration())
	b.Min = d.f64()
	b.Max = d.f64()
	b.Sum = d.f64()
	b.Count = d.varint()
	return b
}

// snapHeader opens a snapshot file.
type snapHeader struct {
	// version is the payload version of the blocks in the series records
	// (see payloadVersion).
	version uint64
	// nextSeg is the first segment index NOT covered by the snapshot:
	// replay resumes there.
	nextSeg uint64
}

func encodeSnapHeader(e *enc, h snapHeader) {
	e.uvarint(h.version)
	e.uvarint(h.nextSeg)
}

func decodeSnapHeader(payload []byte) (snapHeader, error) {
	d := dec{b: payload}
	h := snapHeader{version: d.uvarint(), nextSeg: d.uvarint()}
	if err := d.err(); err != nil {
		return h, err
	}
	return h, checkVersion("snapshot", h.version, payloadVersion)
}

// snapFooter closes a snapshot file; its presence (with matching
// counts) proves the snapshot was written to completion.
type snapFooter struct {
	series uint64
	states uint64
}

func encodeSnapFooter(e *enc, f snapFooter) {
	e.uvarint(f.series)
	e.uvarint(f.states)
}

func decodeSnapFooter(payload []byte) (snapFooter, error) {
	d := dec{b: payload}
	f := snapFooter{series: d.uvarint(), states: d.uvarint()}
	return f, d.err()
}
