package wal

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// roomyStore is fixtureStore with raw room for everything the v2 fixture
// replays: nothing cascades into a tier during recovery, so a lost record
// can only shorten a series, never reshape its older history.
func roomyStore() *tsdb.DB {
	return tsdb.New(tsdb.Config{
		Shards: 2,
		Retention: tsdb.RetentionConfig{
			RawCapacity:   1024,
			TierCapacity:  32,
			Tiers:         2,
			CompressBlock: 16,
		},
	})
}

// crashRecovery is what one recovery of a data directory served.
type crashRecovery struct {
	snapshotLoaded bool
	corrupt        int // files the first scrub pass counted corrupt
	points         map[string][]series.Point
}

// recoverRoomy recovers dir into a roomy store, scrubs it once and
// crashes it. Open must not fail: a cut file is what a crash leaves.
func recoverRoomy(t *testing.T, dir, what string) crashRecovery {
	t.Helper()
	store := roomyStore()
	opts := fixtureOpts
	opts.fs = newFaultFS()
	d, err := Open(dir, store, monitor.NewIngestEstimator(store, fixtureIngest), opts)
	if err != nil {
		t.Fatalf("%s: Open: %v", what, err)
	}
	defer crash(t, d)
	r := crashRecovery{snapshotLoaded: d.Replay().SnapshotLoaded, points: map[string][]series.Point{}}
	_, r.corrupt = d.Scrub()
	for _, id := range store.IDs() {
		res, err := store.Query(id, time.Time{}, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.points[id] = res.Points
	}
	return r
}

// requirePrefix fails unless every series of got is a prefix of the same
// series in full (want a whole prefix when exact) and got has no other.
func requirePrefix(t *testing.T, what string, got, full map[string][]series.Point, exact bool) {
	t.Helper()
	if len(got) != len(full) {
		t.Fatalf("%s: %d series recovered, the full recovery has %d", what, len(got), len(full))
	}
	for id, want := range full {
		pts, ok := got[id]
		if !ok || len(pts) > len(want) || (exact && len(pts) != len(want)) {
			t.Fatalf("%s: %s recovered %d points, the full recovery %d", what, id, len(pts), len(want))
		}
		for i, p := range pts {
			if !p.Time.Equal(want[i].Time) || p.Value != want[i].Value {
				t.Fatalf("%s: %s point %d = %v, the full recovery's %v", what, id, i, p, want[i])
			}
		}
	}
}

// TestCrashPointsV2 cuts a copy of the v2 fixture's snapshot, and of its
// newest segment, at every record boundary and one byte either side of
// it — the shapes a crash mid-write leaves — and recovers each copy:
//   - Open never fails;
//   - the snapshot loads exactly when readSnapshot calls it complete, and
//     the scrub counts it corrupt exactly when it is not (the cut segment
//     is an earlier session's torn tail, a crash artifact the scrub leaves
//     alone);
//   - a cut segment loses only its newest records: every recovered series
//     is an exact prefix of the full recovery;
//   - a snapshot is all or nothing: an incomplete one recovers exactly as
//     if it were absent.
func TestCrashPointsV2(t *testing.T) {
	src := filepath.Join("testdata", "v2")
	snap, seg := snapName(2), segName(3)
	full := recoverRoomy(t, copyDir(t, src), "uncut")
	if !full.snapshotLoaded || full.corrupt != 0 {
		t.Fatalf("uncut fixture: snapshot loaded %v, %d corrupt", full.snapshotLoaded, full.corrupt)
	}
	noSnapDir := copyDir(t, src)
	if err := os.Remove(filepath.Join(noSnapDir, snap)); err != nil {
		t.Fatal(err)
	}
	noSnap := recoverRoomy(t, noSnapDir, "without the snapshot")

	for _, name := range []string{snap, seg} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		cuts := map[int]bool{}
		for _, end := range append([]int{0}, recordEnds(data)...) {
			for _, c := range []int{end - 1, end, end + 1} {
				if c >= 0 && c <= len(data) {
					cuts[c] = true
				}
			}
		}
		for _, cut := range slices.Sorted(maps.Keys(cuts)) {
			dir := copyDir(t, src)
			if err := os.WriteFile(filepath.Join(dir, name), data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			_, complete, err := readSnapshot(osFS{}, filepath.Join(dir, snap), false)
			if err != nil {
				t.Fatalf("%s cut at %d: readSnapshot: %v", name, cut, err)
			}
			what := fmt.Sprintf("%s cut at byte %d of %d", name, cut, len(data))
			got := recoverRoomy(t, dir, what)
			if got.snapshotLoaded != complete {
				t.Fatalf("%s: snapshot loaded %v, readSnapshot complete %v", what, got.snapshotLoaded, complete)
			}
			wantCorrupt := 0
			if !complete {
				wantCorrupt = 1
			}
			if got.corrupt != wantCorrupt {
				t.Fatalf("%s: scrub counted %d corrupt, want %d (snapshot complete %v)", what, got.corrupt, wantCorrupt, complete)
			}
			switch {
			case name == seg:
				requirePrefix(t, what, got.points, full.points, cut == len(data))
			case complete:
				requirePrefix(t, what, got.points, full.points, true)
			default:
				requirePrefix(t, what, got.points, noSnap.points, true)
			}
		}
	}
}
