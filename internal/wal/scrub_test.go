package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/monitor"
	"repro/internal/series"
)

// TestScrubDetectsBitFlip pins the scrub's reason to exist: a single bit
// flipped in a sealed segment is counted and surfaced through the log's
// error stats while the process still serves — before a replay would
// meet it with the in-memory copy already gone.
func TestScrubDetectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	store := servingStore()
	est := monitor.NewIngestEstimator(store, ingestCfg)
	// Tiny segments + synchronous appends: the load seals several
	// segments this session, giving the scrub real files to read.
	d, err := Open(dir, store, est, Options{
		FsyncEvery: -1, segmentBytes: 4 << 10,
		SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ingestLoad(t, store, est, 2, 1024)

	from, to, _ := d.log.sealedRange()
	if to-from < 2 {
		t.Fatalf("load sealed only %d segments, the scrub needs at least one closed one", to-from)
	}

	// A clean pass: every sealed file verifies, nothing is corrupt.
	checked, corrupt := d.Scrub()
	if checked == 0 || corrupt != 0 {
		t.Fatalf("clean scrub: checked %d, corrupt %d", checked, corrupt)
	}
	if errs := d.Stats().Log.Errors; errs != 0 {
		t.Fatalf("clean scrub raised %d log errors", errs)
	}

	// Flip one bit mid-payload in the first sealed segment.
	path := filepath.Join(dir, segName(from))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, corrupt := d.Scrub(); corrupt != 1 {
		t.Fatalf("scrub found %d corrupt files, want the flipped segment", corrupt)
	}
	st := d.Stats()
	if st.ScrubCorrupt != 1 || st.ScrubRuns != 2 {
		t.Fatalf("scrub stats = runs %d, corrupt %d, want 2 and 1", st.ScrubRuns, st.ScrubCorrupt)
	}
	if st.Log.Errors == 0 || !strings.Contains(st.Log.LastError, segName(from)) {
		t.Fatalf("corruption not surfaced in log errors: %+v", st.Log)
	}
	if st.LastScrub.IsZero() {
		t.Fatal("LastScrub not stamped")
	}
	// The corrupt file is re-flagged every pass — the degraded signal
	// must stay live, not fade after the first report.
	if _, corrupt := d.Scrub(); corrupt != 1 {
		t.Fatalf("repeat scrub found %d corrupt files, want the same segment again", corrupt)
	}
}

// TestSnapshotFooterFallback pins recovery's snapshot selection: a
// newest snapshot with a corrupted footer is not an error — boot falls
// back to the previous valid snapshot plus segment replay, and serves
// the same data.
func TestSnapshotFooterFallback(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	d1, err := Open(dir, store1, est1, Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1, fs: newFaultFS()})
	if err != nil {
		t.Fatal(err)
	}
	ingestLoad(t, store1, est1, 2, 1024)
	if err := d1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snapsA, _ := listFiles(osFS{}, dir, snapFmt)
	if len(snapsA) != 1 {
		t.Fatalf("%d snapshots after first Snapshot, want 1", len(snapsA))
	}
	// Keep a copy of snapshot A: the second snapshot deletes it.
	pathA := filepath.Join(dir, snapName(snapsA[0]))
	copyA, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(t, d1)

	// Corrupt snapshot B's footer (truncate its tail) and restore A.
	snaps, _ := listFiles(osFS{}, dir, snapFmt)
	pathB := filepath.Join(dir, snapName(snaps[len(snaps)-1]))
	rawB, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathB, rawB[:len(rawB)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathA, copyA, 0o644); err != nil {
		t.Fatal(err)
	}
	_, okB, errB := readSnapshot(osFS{}, pathB, false)
	_, okA, errA := readSnapshot(osFS{}, pathA, false)
	if okB || !okA || errA != nil || errB != nil {
		t.Fatal("corruption setup backwards: B must be incomplete, A complete")
	}

	store2 := servingStore()
	est2 := monitor.NewIngestEstimator(store2, ingestCfg)
	d2, err := Open(dir, store2, est2, Options{SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1})
	if err != nil {
		t.Fatalf("reopen past the corrupt snapshot: %v", err)
	}
	defer d2.Close()
	info := d2.Replay()
	if !info.SnapshotLoaded || info.SnapshotSeq != snapsA[0] {
		t.Fatalf("recovery did not fall back to snapshot %d: %+v", snapsA[0], info)
	}
	assertStoresMatch(t, store1, store2, "footer fallback")
}

// TestEmptyDirColdStart pins the trivial-but-load-bearing edge: an empty
// data directory is a clean cold start, not an error — no snapshot, no
// replay, and the server ingests from scratch.
func TestEmptyDirColdStart(t *testing.T) {
	dir := t.TempDir()
	store := servingStore()
	est := monitor.NewIngestEstimator(store, ingestCfg)
	d, err := Open(dir, store, est, Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1})
	if err != nil {
		t.Fatalf("cold start on an empty dir: %v", err)
	}
	defer d.Close()
	info := d.Replay()
	if info.SnapshotLoaded || info.Segments != 0 || info.Records != 0 || info.Series != 0 {
		t.Fatalf("cold start replayed something: %+v", info)
	}
	p := series.Point{Time: walStart, Value: 1}
	if err := store.Append("cold/dev/metric", p); err != nil {
		t.Fatalf("first append after cold start: %v", err)
	}
	if checked, corrupt := d.Scrub(); corrupt != 0 {
		t.Fatalf("cold-start scrub: checked %d, corrupt %d", checked, corrupt)
	}
}
