package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	segs, err := listFiles(osFS{}, dir, segFmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("tiny segmentBytes produced %d segments, want rotation", len(segs))
	}
	var got []rec
	for _, idx := range segs {
		_, torn, err := replayFile(osFS{}, filepath.Join(dir, segName(idx)), segMagic, func(_ uint64, typ byte, payload []byte) error {
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
			n, torn, err := replayFile(osFS{}, path, segMagic, func(uint64, byte, []byte) error { return nil })
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
	n, _, err := replayFile(osFS{}, filepath.Join(dir, segName(1)), segMagic, func(uint64, byte, []byte) error { return nil })
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
	records, torn, err := replayFile(osFS{}, filepath.Join(dir, segName(1)), segMagic, func(ver uint64, typ byte, payload []byte) error {
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
	segs, _ := listFiles(osFS{}, dir, segFmt)
	if len(segs) != 1 || segs[0] != cur {
		t.Fatalf("segments after RemoveBefore(%d) = %v, want just the live one", cur, segs)
	}
}

// replayAll returns the payloads of every intact record in dir's
// segments, in segment order.
func replayAll(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := listFiles(osFS{}, dir, segFmt)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, idx := range segs {
		if _, _, err := replayFile(osFS{}, filepath.Join(dir, segName(idx)), segMagic, func(_ uint64, _ byte, payload []byte) error {
			got = append(got, string(payload))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return got
}

// TestFailedSyncIsSticky: a failed fsync poisons its segment. The test FS
// drops the segment's unsynced bytes, as a kernel that failed the
// write-back does; a log that synced the same file again would land the
// next record past that hole and ack it, and replay, stopping at the hole,
// would lose an acked record. Recovery must instead be the prefix of what
// was appended that holds every acked record: A and B, whose appends
// reported the failure, and C. The second failure hits the segment the
// first rotated to; neither poisoned segment ever had a good sync, so
// neither is left behind.
func TestFailedSyncIsSticky(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS()
	l, err := openLog(dir, Options{FsyncEvery: -1, fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"A", "B"} {
		ffs.failNth("sync", 1)
		if err := appendRaw(l, recState, []byte(rec)); !errors.Is(err, errInjected) {
			t.Fatalf("append %s over a failing fsync returned %v, want the fsync's error", rec, err)
		}
	}
	if err := appendRaw(l, recState, []byte("C")); err != nil {
		t.Fatalf("append C after the failed fsyncs: %v", err)
	}
	if st := l.Stats(); st.Errors != 2 || st.Segments != 1 || !strings.Contains(st.LastError, errInjected.Error()) {
		t.Fatalf("stats after two failed fsyncs: %d errors, %d segments, last %q; want 2 and 1", st.Errors, st.Segments, st.LastError)
	}
	ffs.crash()
	_ = l.Close()
	if got := replayAll(t, dir); !slices.Equal(got, []string{"A", "B", "C"}) {
		t.Fatalf("recovered records %q, want [A B C]", got)
	}
	if segs, _ := listFiles(osFS{}, dir, segFmt); !slices.Equal(segs, []uint64{3}) {
		t.Fatalf("segments %v on disk, want only the third", segs)
	}
}

// TestBacklogBound: while the disk fails, the log keeps at most a
// segment's worth of unsynced records and refuses the next one, counted,
// instead of growing through the outage; the first good sync lands every
// record it kept and frees the room.
func TestBacklogBound(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS()
	l, err := openLog(dir, Options{FsyncEvery: time.Hour, segmentBytes: 256, fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.failNth("sync", 1)
	if err := l.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("sync over a failing fsync returned %v", err)
	}
	var kept []string
	for i := 0; ; i++ {
		rec := fmt.Sprintf("record %02d", i)
		if err := appendRaw(l, recState, []byte(rec)); errors.Is(err, errBacklog) {
			break
		} else if err != nil || i > 256 {
			t.Fatalf("append %d: %v; want errBacklog once a segment's worth waits", i, err)
		}
		kept = append(kept, rec)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after the disk recovered: %v", err)
	}
	if err := appendRaw(l, recState, []byte("after")); err != nil {
		t.Fatalf("append after the sync: %v", err)
	}
	if st := l.Stats(); st.Errors != 2 {
		t.Fatalf("%d errors, want the failed fsync and the refused record", st.Errors)
	}
	_ = l.Sync()
	ffs.crash()
	_ = l.Close()
	if got := replayAll(t, dir); !slices.Equal(got, append(kept, "after")) {
		t.Fatalf("recovered %q, want the %d kept records and the one after", got, len(kept))
	}
}

// TestRotateLandsCarriedRecordsFirst: the records a poisoned segment
// carries into the next one were appended before Rotate, so they must land
// below the index Rotate returns. A snapshot replays only the segments from
// that index on, and a carried state record there would override the
// snapshot's newer one.
func TestRotateLandsCarriedRecordsFirst(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultFS()
	l, err := openLog(dir, Options{FsyncEvery: time.Hour, fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRaw(l, recState, []byte("A")); err != nil {
		t.Fatal(err)
	}
	ffs.failNth("sync", 1)
	if err := l.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("sync over a failing fsync returned %v", err)
	}
	next, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRaw(l, recState, []byte("B")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveBefore(next); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); !slices.Equal(got, []string{"B"}) {
		t.Fatalf("segments from the boundary %d hold %q, want only [B]", next, got)
	}
}
