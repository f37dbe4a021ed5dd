package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// fixtureStore is the store shape the checked-in data directories were
// written with: small blocks and capacities, so a few hundred points
// reach sealed blocks, both tiers and the cascade.
func fixtureStore() *tsdb.DB {
	return tsdb.New(tsdb.Config{
		Shards: 2,
		Retention: tsdb.RetentionConfig{
			RawCapacity:   128,
			TierCapacity:  32,
			Tiers:         2,
			CompressBlock: 16,
		},
	})
}

var fixtureIngest = monitor.IngestConfig{WindowSamples: 64, EmitEvery: 8}

var fixtureOpts = Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1}

// fixtureValue is sample i of fixture series s: a two-decimal gauge, a
// 1/64-quantized gauge and an unquantized one, so the directory holds
// every kind of value column.
func fixtureValue(s, i int) float64 {
	v := 40 + 6*twoTone(1.0/64, 1.0/16, float64(i)) + float64(s)
	switch s {
	case 0:
		return math.Round(v*100) / 100
	case 1:
		return math.Round(v*64) / 64
	}
	return v
}

// fixtureLoad appends samples [from, to) of the three fixture series.
func fixtureLoad(t *testing.T, store *tsdb.DB, est *monitor.IngestEstimator, from, to int) {
	t.Helper()
	for s := 0; s < 3; s++ {
		id := fmt.Sprintf("fixture/dev%02d/metric", s)
		for i := from; i < to; i++ {
			p := series.Point{Time: walStart.Add(time.Duration(i) * time.Second), Value: fixtureValue(s, i)}
			if err := store.Append(id, p); err != nil {
				t.Fatalf("append %s/%d: %v", id, i, err)
			}
			est.Observe(id, p)
		}
	}
}

// TestWriteFormatFixture writes a data directory in the running build's
// format into $NYQ_FIXTURE_DIR (skipped when unset): a snapshot, the
// segment after it, a second segment with state records, then a crash.
// testdata/v1 is this test's output at commit a9757e2, the last one that
// wrote payload version 1, and testdata/v2 its output at commit e380351;
// run it again before the next format change.
func TestWriteFormatFixture(t *testing.T) {
	dir := os.Getenv("NYQ_FIXTURE_DIR")
	if dir == "" {
		t.Skip("NYQ_FIXTURE_DIR not set")
	}
	store := fixtureStore()
	est := monitor.NewIngestEstimator(store, fixtureIngest)
	opts := fixtureOpts
	opts.fs = newFaultFS()
	d, err := Open(dir, store, est, opts)
	if err != nil {
		t.Fatal(err)
	}
	fixtureLoad(t, store, est, 0, 300)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fixtureLoad(t, store, est, 300, 420)
	if _, err := d.log.Rotate(); err != nil {
		t.Fatal(err)
	}
	d.writeStates()
	fixtureLoad(t, store, est, 420, 500) // the last 4 points of each series stay unsealed and are lost
	crash(t, d)
}

// dumpRecovered renders everything recovery is responsible for: the
// replay counts, every series' stitched points and retention rate, and
// the estimator's tuning states — floats as bit patterns.
func dumpRecovered(t *testing.T, d *Durable) string {
	t.Helper()
	var b strings.Builder
	r := d.Replay()
	fmt.Fprintf(&b, "replay snapshot=%v seq=%d segments=%d records=%d points=%d skipped=%d series=%d states=%d torn=%v\n",
		r.SnapshotLoaded, r.SnapshotSeq, r.Segments, r.Records, r.Points, r.SkippedPoints, r.Series, r.EstimatorStates, r.TornTail)
	for _, id := range d.store.IDs() {
		res, err := d.store.Query(id, time.Time{}, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "series %s nyquist=%016x points=%d\n", id, math.Float64bits(d.store.NyquistRate(id)), len(res.Points))
		for _, p := range res.Points {
			fmt.Fprintf(&b, "%d %016x\n", p.Time.UnixNano(), math.Float64bits(p.Value))
		}
	}
	states := d.est.ExportState()
	sort.Slice(states, func(i, j int) bool { return states[i].Series < states[j].Series })
	for _, st := range states {
		fmt.Fprintf(&b, "state %s interval=%d samples=%d reprobes=%d nyquist=%016x clean=%d\n",
			st.Series, st.Interval, st.Samples, st.Reprobes, math.Float64bits(st.NyquistRate), st.CleanStreak)
	}
	return b.String()
}

// copyDir copies a flat fixture directory into a fresh temp dir: Open
// writes a new segment, and testdata must stay as checked in.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".wal") && !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func openFixture(t *testing.T, dir string) (*Durable, error) {
	t.Helper()
	store := fixtureStore()
	opts := fixtureOpts
	opts.fs = newFaultFS()
	return Open(dir, store, monitor.NewIngestEstimator(store, fixtureIngest), opts)
}

// requireRecovery opens a copy of testdata/<version> (a snapshot and two
// segments, SIGKILLed) and requires the recovery the build that wrote it
// performed, line for line: recovered.golden is dumpRecovered's output
// there.
func requireRecovery(t *testing.T, version string) {
	t.Helper()
	d, err := openFixture(t, copyDir(t, filepath.Join("testdata", version)))
	if err != nil {
		t.Fatalf("opening the %s directory: %v", version, err)
	}
	defer d.Close()
	want, err := os.ReadFile(filepath.Join("testdata", version, "recovered.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpRecovered(t, d); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("recovery differs from the %s build's at line %d:\n got %q\nwant %q", version, i+1, gl[i], append(wl, "")[min(i, len(wl))])
			}
		}
		t.Fatalf("recovery dump is %d lines, the %s build's %d", len(gl), version, len(wl))
	}
	if r := d.Replay(); !r.SnapshotLoaded || r.Segments != 2 {
		t.Fatalf("fixture should recover from one snapshot and two segments: %+v", r)
	}
}

// TestRecoversPayloadV1: the last version-1 build's directory recovers as
// that build recovered it.
func TestRecoversPayloadV1(t *testing.T) { requireRecovery(t, "v1") }

// TestRecoversPayloadV2: the directory written by the build before
// recovery and the scrub shared one snapshot reader recovers as that build
// recovered it.
func TestRecoversPayloadV2(t *testing.T) { requireRecovery(t, "v2") }

// recordEnds returns the offsets at which a framed file's magic and each
// whole record end; a torn last record has none.
func recordEnds(data []byte) []int {
	ends := []int{len(snapMagic)} // segMagic is as long
	for off := len(snapMagic); off+frameHeader <= len(data); {
		off += frameHeader + int(binary.LittleEndian.Uint32(data[off:])) + 4
		if off > len(data) {
			break
		}
		ends = append(ends, off)
	}
	return ends
}

// TestSnapshotRecordsMatchV2 snapshots the fixture's first 300 samples, as
// TestWriteFormatFixture did for testdata/v2, and requires the framed
// records of that build's snapshot byte for byte. ExportSeries walks maps,
// so the records are compared as a sorted multiset, not as one stream.
func TestSnapshotRecordsMatchV2(t *testing.T) {
	dir := t.TempDir()
	d, err := openFixture(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	fixtureLoad(t, d.store, d.est, 0, 300)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(t, d)
	frames := func(path string) []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ends := recordEnds(data)
		if ends[len(ends)-1] != len(data) {
			t.Fatalf("%s: %d bytes past its last whole record", path, len(data)-ends[len(ends)-1])
		}
		out := []string{string(data[:ends[0]])}
		for i := 1; i < len(ends); i++ {
			out = append(out, string(data[ends[i-1]:ends[i]]))
		}
		sort.Strings(out[1:])
		return out
	}
	got := frames(filepath.Join(dir, snapName(2)))
	want := frames(filepath.Join("testdata", "v2", snapName(2)))
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d records, the v2 build's %d", len(got)-1, len(want)-1)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted frame %d differs from the v2 build's:\n got %x\nwant %x", i, got[i], want[i])
		}
	}
}

// TestV1DirectoryUpgradesInPlace: after a version-1 directory is opened,
// new segments and snapshots are version 2 beside the old files; a second
// recovery over the mix serves what was added, and a third loads the
// version-2 snapshot verbatim.
func TestV1DirectoryUpgradesInPlace(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "v1"))
	d, err := openFixture(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	fixtureLoad(t, d.store, d.est, 500, 596) // six whole blocks: nothing unsealed at the crash
	crash(t, d)

	d2, err := openFixture(t, dir)
	if err != nil {
		t.Fatalf("recovering a mixed v1/v2 directory: %v", err)
	}
	// The added points are newer than anything a tier holds, so the live
	// and the recovered store must agree on them exactly (tier grids may
	// not: replay retunes once at the end, live ingest as it goes).
	from := walStart.Add(500 * time.Second)
	for _, id := range d.store.IDs() {
		live, err := d.store.Query(id, from, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		back, err := d2.store.Query(id, from, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(live.Points) != 96 || len(back.Points) != 96 {
			t.Fatalf("%s: %d points live, %d recovered, want 96", id, len(live.Points), len(back.Points))
		}
		for i := range live.Points {
			if !live.Points[i].Time.Equal(back.Points[i].Time) || live.Points[i].Value != back.Points[i].Value {
				t.Fatalf("%s point %d = %v, want %v", id, i, back.Points[i], live.Points[i])
			}
		}
	}
	if err := d2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crash(t, d2)

	d3, err := openFixture(t, dir)
	if err != nil {
		t.Fatalf("recovering a v2 snapshot: %v", err)
	}
	defer d3.Close()
	if !d3.Replay().SnapshotLoaded {
		t.Fatalf("the v2 snapshot was not loaded: %+v", d3.Replay())
	}
	assertStoresMatch(t, d2.store, d3.store, "v2 snapshot")
}

// TestRefusesFutureVersions: a segment or snapshot from a newer format
// must stop recovery with ErrVersion — read as a torn file it would be
// skipped, and the store would come up silently missing its data.
func TestRefusesFutureVersions(t *testing.T) {
	t.Run("segment", func(t *testing.T) {
		dir := copyDir(t, filepath.Join("testdata", "v1"))
		path := filepath.Join(dir, segName(3))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		digit := len(segMagic) - 2
		if segMagic[digit] != '0'+payloadVersion {
			t.Fatalf("segMagic %q does not carry payloadVersion %d", segMagic, payloadVersion)
		}
		data[digit] = '0' + payloadVersion + 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openFixture(t, dir); !errors.Is(err, ErrVersion) {
			t.Fatalf("segment of a future version: got %v, want ErrVersion", err)
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		d, err := openFixture(t, dir)
		if err != nil {
			t.Fatal(err)
		}
		fixtureLoad(t, d.store, d.est, 0, 100)
		if err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
		crash(t, d)
		// Re-frame the snapshot with its header's version raised.
		snaps, err := listFiles(osFS{}, dir, snapFmt)
		if err != nil || len(snaps) != 1 {
			t.Fatalf("snapshots %v, %v", snaps, err)
		}
		path := filepath.Join(dir, snapName(snaps[0]))
		out := bytes.NewBufferString(snapMagic)
		if _, _, err := replayFile(osFS{}, path, snapMagic, func(_ uint64, typ byte, payload []byte) error {
			e := enc{}
			e.openFrame(typ)
			if typ == recSnapHeader {
				h, err := decodeSnapHeader(payload)
				if err != nil {
					return err
				}
				h.version = payloadVersion + 1
				encodeSnapHeader(&e, h)
			} else {
				e.b = append(e.b, payload...)
			}
			_, err := out.Write(e.closeFrame())
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openFixture(t, dir); !errors.Is(err, ErrVersion) {
			t.Fatalf("snapshot of a future version: got %v, want ErrVersion", err)
		}
	})
}
