package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/series"
	"repro/internal/tsdb"
)

// appendRaw logs one record with an opaque payload.
func appendRaw(l *Log, typ byte, payload []byte) error {
	return l.appendRec(typ, func(e *enc) { e.b = append(e.b, payload...) })
}

// TestLogRoundTrip pins the framing contract: records appended across
// rotations come back intact, typed and in order.
func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, Options{FsyncEvery: -1, segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		typ     byte
		payload []byte
	}
	var want []rec
	for i := 0; i < 40; i++ {
		r := rec{typ: byte(1 + i%2), payload: bytes.Repeat([]byte{byte(i)}, i)}
		want = append(want, r)
		if err := appendRaw(l, r.typ, r.payload); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listFiles(dir, segFmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("tiny segmentBytes produced %d segments, want rotation", len(segs))
	}
	var got []rec
	for _, idx := range segs {
		_, torn, err := replayFile(filepath.Join(dir, segName(idx)), segMagic, func(_ uint64, typ byte, payload []byte) error {
			got = append(got, rec{typ: typ, payload: append([]byte(nil), payload...)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if torn {
			t.Fatalf("segment %d torn after a clean close", idx)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].typ != want[i].typ || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestLogTornTail pins crash behavior: a truncated or bit-flipped tail
// stops replay at the last intact record instead of erroring or
// feeding garbage through.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := appendRaw(l, recBlock, bytes.Repeat([]byte{0xAB}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated-mid-record": func(b []byte) []byte { return b[:len(b)-37] },
		"bit-flip-in-tail": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-20] ^= 0x40
			return c
		},
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			n, torn, err := replayFile(path, segMagic, func(uint64, byte, []byte) error { return nil })
			if err != nil {
				t.Fatalf("replay errored instead of stopping: %v", err)
			}
			if !torn {
				t.Fatal("corrupt tail not reported as torn")
			}
			if n != 9 {
				t.Fatalf("replayed %d records, want 9 intact before the corruption", n)
			}
		})
	}
}

// TestLogGroupCommit exercises the async path: appends return before
// the data is on disk, Sync makes it durable, and the background
// flusher catches up on its own within the window.
func TestLogGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, Options{FsyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ {
		if err := appendRaw(l, recState, []byte("state")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	n, _, err := replayFile(filepath.Join(dir, segName(1)), segMagic, func(uint64, byte, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("after Sync, %d records on disk, want 100", n)
	}
	st := l.Stats()
	if st.Records != 100 || st.Syncs == 0 {
		t.Fatalf("stats = %+v, want 100 records and at least one sync", st)
	}
}

// TestSealRecordZeroAlloc pins the seal hook's append: once the log's
// framing buffer has grown to a block record, logging another sealed
// block allocates nothing — the record is encoded straight into that
// buffer, header and CRC included — and what lands is the record replay
// decodes back to the same block.
func TestSealRecordZeroAlloc(t *testing.T) {
	pts := make([]series.Point, 128)
	for i := range pts {
		pts[i] = series.Point{Time: walStart.Add(time.Duration(i) * time.Second), Value: 40 + float64(i%37)*0.25}
	}
	blk, err := tsdb.EncodeBlock(pts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// An hour-long group commit keeps the flusher out of the measurement.
	l, err := openLog(dir, Options{FsyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const id = "seal/dev00/metric"
	if err := l.appendBlock(id, blk); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := l.appendBlock(id, blk); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a warm seal record allocates %v objects, want 0", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	records, torn, err := replayFile(filepath.Join(dir, segName(1)), segMagic, func(ver uint64, typ byte, payload []byte) error {
		r, err := decodeBlockRec(payload, ver)
		if err != nil {
			return err
		}
		if typ != recBlock || r.id != id || r.blk.Len() != blk.Len() || !bytes.Equal(r.blk.Data(), blk.Data()) {
			t.Fatalf("replayed type %d id %q, %d points: not the appended block", typ, r.id, r.blk.Len())
		}
		return nil
	})
	if err != nil || torn || records != 1002 {
		t.Fatalf("replayed %d records (torn %v, err %v), want 1002 intact", records, torn, err)
	}
}

// TestRemoveBefore pins compaction bookkeeping.
func TestRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, Options{FsyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if err := appendRaw(l, recState, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	cur := l.seg
	l.mu.Unlock()
	if err := l.RemoveBefore(cur); err != nil {
		t.Fatal(err)
	}
	segs, _ := listFiles(dir, segFmt)
	if len(segs) != 1 || segs[0] != cur {
		t.Fatalf("segments after RemoveBefore(%d) = %v, want just the live one", cur, segs)
	}
}
