package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

var walStart = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func servingStore() *tsdb.DB {
	return tsdb.New(tsdb.Config{
		Shards: 4,
		Retention: tsdb.RetentionConfig{
			RawCapacity:   2048,
			TierCapacity:  256,
			Tiers:         2,
			CompressBlock: 128,
		},
	})
}

var ingestCfg = monitor.IngestConfig{WindowSamples: 256, EmitEvery: 8}

// twoTone is the band-limited test signal: expected Nyquist = 2·f2.
func twoTone(f1, f2, t float64) float64 {
	return math.Sin(2*math.Pi*f1*t) + 0.8*math.Sin(2*math.Pi*f2*t+1)
}

// ingestLoad pushes n points of s series through the serving pair, as
// handleIngest would (store append + estimator observe per point).
func ingestLoad(t *testing.T, store *tsdb.DB, est *monitor.IngestEstimator, seriesN, n int) {
	t.Helper()
	const f2 = 16.0 / 256
	for s := 0; s < seriesN; s++ {
		id := fmt.Sprintf("ext/dev%02d/metric", s)
		for i := 0; i < n; i++ {
			p := series.Point{
				Time:  walStart.Add(time.Duration(i) * time.Second),
				Value: twoTone(f2/4, f2, float64(i)) + float64(s),
			}
			if err := store.Append(id, p); err != nil {
				t.Fatalf("append %s/%d: %v", id, i, err)
			}
			est.Observe(id, p)
		}
	}
}

// assertStoresMatch compares every series' full query results.
func assertStoresMatch(t *testing.T, a, b *tsdb.DB, context string) {
	t.Helper()
	idsA, idsB := a.IDs(), b.IDs()
	if len(idsA) != len(idsB) {
		t.Fatalf("%s: %d series recovered, want %d", context, len(idsB), len(idsA))
	}
	for _, id := range idsA {
		ra, err := a.Query(id, time.Time{}, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Query(id, time.Time{}, time.Time{}, 0)
		if err != nil {
			t.Fatalf("%s: recovered store lost %s: %v", context, id, err)
		}
		if len(ra.Points) != len(rb.Points) {
			t.Fatalf("%s: %s recovered %d points, want %d", context, id, len(rb.Points), len(ra.Points))
		}
		for i := range ra.Points {
			if !ra.Points[i].Time.Equal(rb.Points[i].Time) || ra.Points[i].Value != rb.Points[i].Value {
				t.Fatalf("%s: %s point %d = %v, want %v", context, id, i, rb.Points[i], ra.Points[i])
			}
		}
	}
}

// TestCrashRecoveryWALOnly is the core durability contract: SIGKILL
// (simulated by abandoning the Durable without Close) loses nothing
// that was sealed and group-committed; a fresh process replays the
// segments and serves identical query results and equivalent estimates.
func TestCrashRecoveryWALOnly(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	d1, err := Open(dir, store1, est1, Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1, fs: newFaultFS()})
	if err != nil {
		t.Fatal(err)
	}
	// 1024 points = 8 sealed 128-point blocks per series, no unsealed
	// tail, so recovery must be exact.
	ingestLoad(t, store1, est1, 3, 1024)
	preAdv, ok := est1.Advice("ext/dev00/metric")
	if !ok || preAdv.NyquistRate == 0 {
		t.Fatalf("precondition: no trusted estimate before the crash: %+v", preAdv)
	}
	crash(t, d1) // no Close, no final seal, no state sweep

	store2 := servingStore()
	est2 := monitor.NewIngestEstimator(store2, ingestCfg)
	d2, err := Open(dir, store2, est2, Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer d2.Close()

	info := d2.Replay()
	if info.Points != 3*1024 {
		t.Fatalf("replayed %d points, want %d (info: %+v)", info.Points, 3*1024, info)
	}
	if info.SnapshotLoaded {
		t.Fatalf("no snapshot was written, but replay claims one: %+v", info)
	}
	assertStoresMatch(t, store1, store2, "WAL-only")

	// The estimator rewarmed from the replayed tail: same window data,
	// same interval, numerically identical estimate.
	adv, ok := est2.Advice("ext/dev00/metric")
	if !ok {
		t.Fatal("no advice after recovery")
	}
	if adv.Interval != preAdv.Interval {
		t.Fatalf("recovered interval %v, want %v", adv.Interval, preAdv.Interval)
	}
	if !adv.Warm {
		t.Fatalf("estimator not rewarmed: %+v", adv)
	}
	if rel := math.Abs(adv.NyquistRate-preAdv.NyquistRate) / preAdv.NyquistRate; rel > 0.05 {
		t.Fatalf("recovered estimate %.6f Hz vs pre-crash %.6f Hz (%.1f%% off)", adv.NyquistRate, preAdv.NyquistRate, 100*rel)
	}
	if got, want := store2.NyquistRate("ext/dev00/metric"), store1.NyquistRate("ext/dev00/metric"); got != want {
		t.Fatalf("recovered retention rate %v, want %v", got, want)
	}
}

// TestCrashRecoveryUnsyncedTail pins the documented durability window:
// with a wide group-commit window, points appended after the last sync
// may be lost, but everything up to the sync must survive and the
// recovered store must still be internally consistent.
func TestCrashRecoveryUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	// An hour-long group-commit window: nothing is synced unless we say so.
	d1, err := Open(dir, store1, est1, Options{FsyncEvery: time.Hour, SnapshotEvery: -1, StateEvery: -1, fs: newFaultFS()})
	if err != nil {
		t.Fatal(err)
	}
	ingestLoad(t, store1, est1, 1, 512) // 4 sealed blocks
	if err := d1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced continuation: 2 more sealed blocks that never hit disk.
	id := "ext/dev00/metric"
	for i := 512; i < 768; i++ {
		p := series.Point{Time: walStart.Add(time.Duration(i) * time.Second), Value: 1}
		if err := store1.Append(id, p); err != nil {
			t.Fatal(err)
		}
	}
	crash(t, d1)

	store2 := servingStore()
	est2 := monitor.NewIngestEstimator(store2, ingestCfg)
	d2, err := Open(dir, store2, est2, Options{SnapshotEvery: -1, StateEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	res, err := store2.Query(id, time.Time{}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 512 {
		t.Fatalf("recovered %d points, want exactly the 512 synced ones", len(res.Points))
	}
}

// TestCrashLossAcrossSnapshot pins the SIGKILL loss as an exact count
// when open runs straddle a snapshot: per series, recovery returns
// exactly the points accepted up to the later of its last seal whose
// record was synced and the last completed snapshot, and nothing after.
// Every series holds a non-empty open run at the snapshot and again at
// the crash; for some the snapshot is the later instant, for others a
// seal synced after it.
func TestCrashLossAcrossSnapshot(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	// An hour-long group-commit window: only Sync and the snapshot's
	// rotation reach the disk.
	d1, err := Open(dir, store1, est1, Options{FsyncEvery: time.Hour, SnapshotEvery: -1, StateEvery: -1, fs: newFaultFS()})
	if err != nil {
		t.Fatal(err)
	}
	const seriesN = 4
	accepted := make([][]series.Point, seriesN)
	id := func(s int) string { return fmt.Sprintf("ext/dev%02d/metric", s) }
	push := func(s, k int) {
		for ; k > 0; k-- {
			i := len(accepted[s])
			p := series.Point{
				Time:  walStart.Add(time.Duration(i) * time.Second),
				Value: twoTone(1.0/64, 1.0/16, float64(i)) + float64(s),
			}
			if err := store1.Append(id(s), p); err != nil {
				t.Fatalf("append %s/%d: %v", id(s), i, err)
			}
			est1.Observe(id(s), p)
			accepted[s] = append(accepted[s], p)
		}
	}
	// sealed reports each series' points in sealed blocks, and that its
	// open run is not empty.
	sealed := func() []int {
		out := make([]int, seriesN)
		if err := store1.ExportSeries(func(ss tsdb.SeriesSnapshot) error {
			var s int
			if _, err := fmt.Sscanf(ss.ID, "ext/dev%02d/metric", &s); err != nil {
				return err
			}
			if len(ss.Active) == 0 {
				t.Fatalf("%s: open run empty at %d appends", ss.ID, ss.Appends)
			}
			out[s] = int(ss.Appends) - len(ss.Active)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for s, k := range []int{200, 250, 300, 350} {
		push(s, k)
	}
	sealed()
	if err := d1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := make([]int, seriesN)
	for s := range want {
		want[s] = len(accepted[s])
	}
	// After the snapshot: dev00 seals nothing, the rest seal a block past
	// their snapshot count, and the sync makes those seals durable.
	for s, k := range []int{10, 60, 100, 150} {
		push(s, k)
	}
	for s, n := range sealed() {
		want[s] = max(want[s], n)
	}
	if err := d1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced: dev00, dev01 and dev03 seal another block that never
	// reaches the disk.
	for s, k := range []int{50, 100, 20, 30} {
		push(s, k)
	}
	sealed()
	crash(t, d1)

	store2 := servingStore()
	est2 := monitor.NewIngestEstimator(store2, ingestCfg)
	d2, err := Open(dir, store2, est2, Options{SnapshotEvery: -1, StateEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if want[0] != 200 || want[1] != 256 || want[2] != 384 || want[3] != 384 {
		t.Fatalf("precondition: durable counts %v, want the snapshot's 200 for dev00 and synced seals 256, 384, 384", want)
	}
	for s := range accepted {
		res, err := store2.Query(id(s), time.Time{}, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != want[s] {
			t.Fatalf("%s: recovered %d points of %d accepted, want exactly %d", id(s), len(res.Points), len(accepted[s]), want[s])
		}
		for i, p := range res.Points {
			if q := accepted[s][i]; !p.Time.Equal(q.Time) || math.Float64bits(p.Value) != math.Float64bits(q.Value) {
				t.Fatalf("%s: point %d = %v, accepted %v", id(s), i, p, q)
			}
		}
	}
}

// TestSnapshotCompaction pins the snapshot lifecycle: a snapshot
// captures the full store (tiers included), deletes the covered
// segments, and recovery from snapshot + later segments is identical to
// never restarting.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	d1, err := Open(dir, store1, est1, Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1, fs: newFaultFS()})
	if err != nil {
		t.Fatal(err)
	}
	// 4000 > RawCapacity 2048: the cascade has pushed history into the
	// tiers, which only a snapshot (not WAL replay alone) can carry
	// across compaction.
	ingestLoad(t, store1, est1, 2, 4000)
	if err := d1.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	segsAfter, _ := listFiles(osFS{}, dir, segFmt)
	if len(segsAfter) != 1 {
		t.Fatalf("snapshot left %d segments, want 1 (the live one)", len(segsAfter))
	}
	if st := d1.Stats(); st.Snapshots != 1 || st.SnapshotSeries != 2 {
		t.Fatalf("stats after snapshot: %+v", st)
	}

	// Post-snapshot traffic lands in the new segment. 96 more points
	// bring dev00 to 4096 = 32 sealed blocks exactly: the block sealed
	// after the snapshot straddles the boundary (32 snapshot-covered
	// points + these 96), and the active tail is empty at the crash, so
	// recovery must be exact and must not double the boundary points.
	id := "ext/dev00/metric"
	for i := 4000; i < 4096; i++ {
		p := series.Point{Time: walStart.Add(time.Duration(i) * time.Second), Value: 2}
		if err := store1.Append(id, p); err != nil {
			t.Fatal(err)
		}
		est1.Observe(id, p)
	}
	crash(t, d1)

	store2 := servingStore()
	est2 := monitor.NewIngestEstimator(store2, ingestCfg)
	d2, err := Open(dir, store2, est2, Options{SnapshotEvery: -1, StateEvery: -1})
	if err != nil {
		t.Fatalf("reopen from snapshot: %v", err)
	}
	defer d2.Close()
	info := d2.Replay()
	if !info.SnapshotLoaded {
		t.Fatalf("snapshot not loaded on recovery: %+v", info)
	}
	if info.Points != 96 || info.SkippedPoints != 32 {
		t.Fatalf("replayed %d new + %d skipped boundary points, want 96 + 32 (info: %+v)", info.Points, info.SkippedPoints, info)
	}
	assertStoresMatch(t, store1, store2, "snapshot+WAL")

	// Estimator state came back through the snapshot.
	pre, _ := est1.Advice(id)
	post, ok := est2.Advice(id)
	if !ok || post.Interval != pre.Interval {
		t.Fatalf("recovered advice %+v, want interval %v", post, pre.Interval)
	}
}

// TestCleanShutdownSealsTail pins Close: the unsealed active tail and a
// final state sweep become durable, so a graceful restart loses nothing
// at all.
func TestCleanShutdownSealsTail(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	d1, err := Open(dir, store1, est1, Options{SnapshotEvery: -1, StateEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ingestLoad(t, store1, est1, 1, 1000) // 7 sealed blocks + 104 active
	// A counter beside the gauge: its increments ride twoTone.
	const counter = "ext/dev00/bytes_total"
	total := 0.0
	for i := 0; i < 1000; i++ {
		total += 10 + twoTone(1.0/64, 1.0/16, float64(i))
		p := series.Point{Time: walStart.Add(time.Duration(i) * time.Second), Value: total}
		if err := store1.Append(counter, p); err != nil {
			t.Fatal(err)
		}
		est1.Observe(counter, p)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := servingStore()
	est2 := monitor.NewIngestEstimator(store2, ingestCfg)
	d2, err := Open(dir, store2, est2, Options{SnapshotEvery: -1, StateEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	assertStoresMatch(t, store1, store2, "clean shutdown")
	pre, _ := est1.Advice("ext/dev00/metric")
	post, ok := est2.Advice("ext/dev00/metric")
	if !ok || post.NyquistRate != pre.NyquistRate || post.Interval != pre.Interval {
		t.Fatalf("advice after clean restart %+v, want nyquist %v interval %v", post, pre.NyquistRate, pre.Interval)
	}
	// Sample accounting must not inflate across restarts: the restored
	// counter is reduced by exactly the rewarm feed before the feed
	// re-observes those points.
	if post.Samples != pre.Samples {
		t.Fatalf("samples after clean restart = %d, want %d (rewarm must not double-count)", post.Samples, pre.Samples)
	}
	// The rewarm's last refresh lands on each series' newest stored point,
	// a counter's too: its first rewarmed point only primes the differencing.
	newest := walStart.Add(999 * time.Second)
	for _, id := range []string{"ext/dev00/metric", counter} {
		if adv, ok := est2.Advice(id); !ok || !adv.UpdatedAt.Equal(newest) {
			t.Fatalf("%s: updated_at after clean restart %v, want its newest stored point %v", id, adv.UpdatedAt, newest)
		}
	}
}

// TestSnapshotVerbatimSegmentTag pins the snapshot format's raw-segment
// tag byte. It stays in the format — a data dir written before the store
// became strict-append-only must still recover — but its other value
// marked a verbatim point segment, which no strict store could write and
// the store can no longer hold: it decodes to an error naming the series
// instead of being restored.
func TestSnapshotVerbatimSegmentTag(t *testing.T) {
	blk, err := tsdb.EncodeBlock([]series.Point{{Time: walStart, Value: 1}, {Time: walStart.Add(time.Second), Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	e := enc{}
	encodeSeriesSnap(&e, tsdb.SeriesSnapshot{ID: "ext/dev00/metric", Raw: []tsdb.Block{blk}})
	s, err := decodeSeriesSnap(e.b, payloadVersion)
	if err != nil || len(s.Raw) != 1 || s.Raw[0].Len() != 2 {
		t.Fatalf("block-tagged segment: %d segments, err %v", len(s.Raw), err)
	}

	// The same series with its one segment written the verbatim way:
	// tag 0, then a delta-coded point list.
	verbatim := enc{}
	verbatim.str("ext/dev00/metric")
	verbatim.f64(0)      // NyquistRate
	verbatim.varint(0)   // Gap
	verbatim.bool(false) // HaveLast
	for i := 0; i < 3; i++ {
		verbatim.varint(0) // Appends, Compacted, Dropped
	}
	verbatim.uvarint(1) // one raw segment
	verbatim.bool(false)
	encodePoints(&verbatim, []series.Point{{Time: walStart, Value: 1}})
	encodePoints(&verbatim, nil) // Active
	verbatim.uvarint(0)          // Tiers
	if _, err := decodeSeriesSnap(verbatim.b, payloadVersion); err == nil || !strings.Contains(err.Error(), `"ext/dev00/metric"`) {
		t.Fatalf("verbatim-tagged segment: err = %v, want an error naming the series", err)
	}
}

// TestCrashRecoveryMidHold kills the process while a series' retention is
// held above its newest estimates: the signal widened (retention rose at
// once), narrowed again, and ten lower refreshes into the wait the state
// sweep ran and the process died. Recovery must bring retention back at
// the held rate — not at the newest estimate the record also carries —
// and must not count the dead process's wait: retention lowers only after
// a full turnover of the recovered estimator's own lower estimates.
func TestCrashRecoveryMidHold(t *testing.T) {
	const id = "ext/dev00/metric"
	signal := func(i int) float64 {
		if i >= 512 && i < 1024 {
			return twoTone(1.0/64, 40.0/256, float64(i)) // wide
		}
		return twoTone(1.0/64, 8.0/256, float64(i)) // narrow
	}
	feed := func(store *tsdb.DB, est *monitor.IngestEstimator, i int) {
		p := series.Point{Time: walStart.Add(time.Duration(i) * time.Second), Value: signal(i)}
		if err := store.Append(id, p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		est.Observe(id, p)
	}
	opts := Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1}

	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	crashable := opts
	crashable.fs = newFaultFS()
	d1, err := Open(dir, store1, est1, crashable)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for adv := (monitor.IngestAdvice{}); i < 1024 || adv.HeldRefreshes < 10; i++ {
		if i > 2048 {
			t.Fatalf("the wait never reached ten refreshes: %+v", adv)
		}
		feed(store1, est1, i)
		adv, _ = est1.Advice(id)
	}
	pre, _ := est1.Advice(id)
	held := store1.NyquistRate(id)
	if !(held > 2*pre.NyquistRate) {
		t.Fatalf("precondition: retention %v should be held well above the newest estimate %v", held, pre.NyquistRate)
	}
	// The crash falls on a block boundary, so the stored tail the recovered
	// estimator rewarms from ends inside the wait: every estimate it
	// re-derives is one of the ten lower ones.
	store1.SealAll()
	d1.writeStates()
	crash(t, d1)

	store2 := servingStore()
	est2 := monitor.NewIngestEstimator(store2, ingestCfg)
	d2, err := Open(dir, store2, est2, opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer d2.Close()
	if got := store2.NyquistRate(id); got != held {
		t.Fatalf("recovered retention rate %v, want the held %v (newest estimate before the crash: %v)", got, held, pre.NyquistRate)
	}
	states := est2.ExportState()
	if len(states) != 1 || states[0].HeldRate != held {
		t.Fatalf("recovered state %+v, want held rate %v", states, held)
	}
	// The rewarm replayed the stored tail through the recovered estimator;
	// whatever lower estimates that produced are the new wait's first.
	adv, _ := est2.Advice(id)
	if adv.HeldRefreshes == 0 || adv.HeldRefreshes >= 10 || adv.HoldTurnover != 32 {
		t.Fatalf("recovered wait %d of %d: want the rewarm's few lower estimates, not the dead process's ten", adv.HeldRefreshes, adv.HoldTurnover)
	}
	// Carry on and watch retention refresh by refresh.
	lowered := false
	for next := i; i < next+40*8 && !lowered; i++ {
		before, _ := est2.Advice(id)
		feed(store2, est2, i)
		after, _ := est2.Advice(id)
		switch got := store2.NyquistRate(id); {
		case got == held:
		case got > held:
			t.Fatalf("point %d: retention rose to %v on a narrowing signal", i, got)
		case before.HeldRefreshes != 31:
			t.Fatalf("point %d: retention lowered to %v after %d lower refreshes of this process, want a full turnover of 32", i, got, before.HeldRefreshes+1)
		default:
			lowered = true
			if got < after.NyquistRate {
				t.Fatalf("retention lowered to %v, below the newest estimate %v", got, after.NyquistRate)
			}
		}
	}
	if !lowered {
		t.Fatal("retention never followed the narrowed signal down")
	}
}

// TestSnapshotKeepsSegmentsWhenDirSyncFails: when the directory fsync
// after the snapshot's rename fails, the rename's dirent may never reach
// the disk, so the snapshot must not compact away the segments it covers.
// The test fails the sync, then crashes as if the dirent were lost — the
// snapshot file gone — and requires every point back from the segments,
// and the failure counted.
func TestSnapshotKeepsSegmentsWhenDirSyncFails(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	ffs := newFaultFS()
	d1, err := Open(dir, store1, est1, Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1, fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ingestLoad(t, store1, est1, 2, 1024) // 8 sealed blocks per series, no tail
	segsBefore, _ := listFiles(osFS{}, dir, segFmt)
	ffs.failNth("syncdir", 1)
	if err := d1.Snapshot(); !errors.Is(err, errInjected) {
		t.Fatalf("snapshot with a failing directory fsync returned %v, want the fsync's error", err)
	}
	if segs, _ := listFiles(osFS{}, dir, segFmt); len(segs) != len(segsBefore)+1 {
		t.Fatalf("%d segments after the failed snapshot, want the %d it covers plus the live one", len(segs), len(segsBefore))
	}
	if st := d1.Stats(); st.Log.Errors != 1 || st.Snapshots != 0 {
		t.Fatalf("stats after the failed snapshot: %d log errors, %d snapshots; want 1 and 0", st.Log.Errors, st.Snapshots)
	}
	crash(t, d1)
	snaps, _ := listFiles(osFS{}, dir, snapFmt)
	for _, idx := range snaps { // the dirent the failed fsync never made durable
		if err := os.Remove(filepath.Join(dir, snapName(idx))); err != nil {
			t.Fatal(err)
		}
	}

	store2 := servingStore()
	est2 := monitor.NewIngestEstimator(store2, ingestCfg)
	d2, err := Open(dir, store2, est2, Options{SnapshotEvery: -1, StateEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if info := d2.Replay(); info.SnapshotLoaded || info.Points != 2*1024 {
		t.Fatalf("recovered %d points (snapshot loaded: %v), want all %d from the segments", info.Points, info.SnapshotLoaded, 2*1024)
	}
	assertStoresMatch(t, store1, store2, "failed directory fsync")
}

// roundRobinLoad appends rounds of one 128-point block to each of seriesN
// series in turn, continuing where accepted leaves off and recording in it
// every point the store accepted. Before round r, before(r) may arm a
// fault.
func roundRobinLoad(t *testing.T, store *tsdb.DB, est *monitor.IngestEstimator, accepted map[string][]series.Point, seriesN, rounds int, before func(r int)) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		before(r)
		for s := 0; s < seriesN; s++ {
			id := fmt.Sprintf("ext/dev%02d/metric", s)
			for k := 0; k < 128; k++ {
				i := len(accepted[id])
				p := series.Point{Time: walStart.Add(time.Duration(i) * time.Second), Value: twoTone(1.0/64, 1.0/16, float64(i)) + float64(s)}
				if err := store.Append(id, p); err != nil {
					t.Fatalf("append %s/%d: %v", id, i, err)
				}
				est.Observe(id, p)
				accepted[id] = append(accepted[id], p)
			}
		}
	}
}

// recoveredPoints opens dir on the real disk and returns every series'
// points and what replay did.
func recoveredPoints(t *testing.T, dir string) (map[string][]series.Point, ReplayInfo) {
	t.Helper()
	store := servingStore()
	d, err := Open(dir, store, monitor.NewIngestEstimator(store, ingestCfg), Options{SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer d.Close()
	got := map[string][]series.Point{}
	for _, id := range store.IDs() {
		res, err := store.Query(id, time.Time{}, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got[id] = res.Points
	}
	return got, d.Replay()
}

// TestShortWriteMidFrame: the disk fills mid-record on the live segment —
// a write lands half a frame and fails with ENOSPC — and then has room
// again. The failure is counted once, the scrub does not count it again,
// the poisoned segment stays, and after a crash every series recovers
// whole: the next segment took the records the failed write left
// unsynced, so none of the blocks sealed after it sits behind a hole.
func TestShortWriteMidFrame(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	ffs := newFaultFS()
	d1, err := Open(dir, store1, est1, Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1, fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	accepted := map[string][]series.Point{}
	roundRobinLoad(t, store1, est1, accepted, 3, 8, func(r int) {
		if r == 4 {
			ffs.failNth("write", 2) // the second series' block of round 4
		}
	})
	// The poisoned segment's torn tail is the failure already counted,
	// and every record past it landed again: the scrub finds no corruption.
	if checked, corrupt := d1.Scrub(); checked == 0 || corrupt != 0 {
		t.Fatalf("scrub after the short write: %d files checked, %d corrupt", checked, corrupt)
	}
	if st := d1.Stats().Log; st.Errors != 1 || !strings.Contains(st.LastError, "no space left") {
		t.Fatalf("log stats after one short write: %d errors, last %q", st.Errors, st.LastError)
	}
	segs, _ := listFiles(osFS{}, dir, segFmt)
	crash(t, d1)

	got, info := recoveredPoints(t, dir)
	requirePrefix(t, "after a short write", got, accepted, true)
	if !info.TornTail || info.Segments != len(segs) {
		t.Fatalf("replay %+v: want the %d segments, the poisoned one torn", info, len(segs))
	}
}

// TestSnapshotRenameFails: the rename of a complete snap-*.tmp to its
// final name fails. The snapshot reports and counts the failure, compacts
// nothing and leaves no temp file, and a crash recovers every point from
// the segments it would have covered.
func TestSnapshotRenameFails(t *testing.T) {
	dir := t.TempDir()
	store1 := servingStore()
	est1 := monitor.NewIngestEstimator(store1, ingestCfg)
	ffs := newFaultFS()
	d1, err := Open(dir, store1, est1, Options{FsyncEvery: -1, SnapshotEvery: -1, StateEvery: -1, ScrubEvery: -1, fs: ffs})
	if err != nil {
		t.Fatal(err)
	}
	accepted := map[string][]series.Point{}
	roundRobinLoad(t, store1, est1, accepted, 2, 8, func(int) {})
	segsBefore, _ := listFiles(osFS{}, dir, segFmt)
	ffs.failNth("rename", 1)
	if err := d1.Snapshot(); !errors.Is(err, errInjected) {
		t.Fatalf("snapshot with a failing rename returned %v, want the rename's error", err)
	}
	if st := d1.Stats(); st.SnapshotErrors != 1 || st.Snapshots != 0 {
		t.Fatalf("stats after the failed snapshot: %d snapshot errors, %d snapshots; want 1 and 0", st.SnapshotErrors, st.Snapshots)
	}
	if segs, _ := listFiles(osFS{}, dir, segFmt); len(segs) != len(segsBefore)+1 {
		t.Fatalf("%d segments after the failed snapshot, want the %d it covers plus the live one", len(segs), len(segsBefore))
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "snap-*")); len(left) != 0 {
		t.Fatalf("the failed snapshot left %v", left)
	}
	crash(t, d1)

	got, info := recoveredPoints(t, dir)
	if info.SnapshotLoaded {
		t.Fatalf("replay %+v loaded a snapshot that never landed", info)
	}
	requirePrefix(t, "after a failed rename", got, accepted, true)
}
