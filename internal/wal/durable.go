// Durable ties the segment log to the serving state: it hooks the
// store's block sealing into the log, periodically records estimator
// tuning state, replays everything on boot, and compacts the log behind
// snapshots. This file is the subsystem's public surface; wal.go owns
// the bytes.

package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/monitor"
	"repro/internal/series"
	"repro/internal/tsdb"
)

// Options parameterizes a Durable store. The zero value is serving-safe.
type Options struct {
	// FsyncEvery is the group-commit window: how often the background
	// flusher pushes buffered records to disk and fsyncs. Zero selects
	// 10ms; negative syncs synchronously on every append (the paranoid
	// configuration — every accepted record is durable before the next).
	FsyncEvery time.Duration
	// SnapshotEvery is the background compactor's cadence; zero selects
	// 60s, negative disables automatic snapshots (Snapshot can still be
	// called manually).
	SnapshotEvery time.Duration
	// StateEvery is the estimator tuning-state record cadence; zero
	// selects 15s, negative disables periodic state records (they are
	// still written on Close and captured by snapshots).
	StateEvery time.Duration
	// ScrubEvery is the background CRC scrub's cadence: re-read and
	// checksum the segments this session sealed plus the newest
	// snapshot, so silent disk corruption is counted in LogStats.Errors
	// while the process still serves — not discovered at the next boot's
	// replay, when the good copy in memory is already gone. Zero selects
	// 60s, negative disables (Scrub can still be called manually).
	ScrubEvery time.Duration
	// SyncObserver, when set, observes the wall time of every flush+fsync
	// the log issues — the observability layer's fsync-latency histogram.
	// It is called with the log's mutex held, so it must be fast and
	// nonblocking (an atomic histogram observe, not I/O).
	SyncObserver func(time.Duration)

	// segmentBytes rotates the live segment once it exceeds this size
	// (zero selects 64 MiB), and fs takes every file operation (nil selects
	// osFS). Only this package's tests set them: to rotate small logs, and
	// to fail the disk or crash.
	segmentBytes int64
	fs           fileSystem
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery == 0 {
		o.FsyncEvery = 10 * time.Millisecond
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = 64 << 20
	}
	if o.fs == nil {
		o.fs = osFS{}
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 60 * time.Second
	}
	if o.StateEvery == 0 {
		o.StateEvery = 15 * time.Second
	}
	if o.ScrubEvery == 0 {
		o.ScrubEvery = 60 * time.Second
	}
	return o
}

// snapshotMinBytes skips a background compaction round when fewer WAL
// bytes accumulated since the last snapshot.
const snapshotMinBytes = 1 << 20

// ReplayInfo summarizes what boot recovery did.
type ReplayInfo struct {
	// SnapshotLoaded reports a valid snapshot was restored (and Seq its
	// index).
	SnapshotLoaded bool
	SnapshotSeq    uint64
	// Segments is the number of segment files replayed.
	Segments int
	// Records counts intact records applied across those segments.
	Records int64
	// Points counts points appended into the store from block records.
	Points int64
	// SkippedPoints counts replayed points the store rejected as
	// duplicates of snapshot-covered data (the snapshot-boundary
	// overlap) or as out of order.
	SkippedPoints int64
	// Series is the number of series in the store after recovery.
	Series int
	// EstimatorStates is the number of estimator tuning states restored.
	EstimatorStates int
	// TornTail reports replay stopped at a torn or corrupt record — the
	// normal shape after a crash (the tail past the last group commit).
	TornTail bool
	// Duration is the wall time recovery took.
	Duration time.Duration
}

// Stats is the durability subsystem's operator view.
type Stats struct {
	Dir string
	Log LogStats
	// Snapshots counts snapshots taken this session; LastSnapshot
	// stamps the newest (zero when none yet). SnapshotErrors counts
	// failed snapshot attempts — like Log.Errors, a non-zero value
	// means durability is degraded while serving continues.
	Snapshots      int64
	SnapshotErrors int64
	LastSnapshot   time.Time
	// SnapshotSeries is the series count in the newest snapshot.
	SnapshotSeries int
	// ScrubRuns counts background CRC scrub passes this session;
	// ScrubFiles the segment/snapshot files they read; ScrubCorrupt the
	// files that failed a checksum (each also counted into Log.Errors).
	// LastScrub stamps the newest pass (zero when none yet).
	ScrubRuns    int64
	ScrubFiles   int64
	ScrubCorrupt int64
	LastScrub    time.Time
	// Replay describes boot recovery.
	Replay ReplayInfo
}

// Durable is a restart-safe wrapper around the serving pair: it makes
// the store's sealed blocks and the estimator's tuning state durable,
// and rebuilds both on Open.
type Durable struct {
	dir   string
	opts  Options
	store *tsdb.DB
	est   *monitor.IngestEstimator
	log   *Log

	mu sync.Mutex // serializes snapshots, state sweeps and scrubs
	// stats holds Replay (written once, before Open returns, so Replay
	// reads it without mu) and the snapshot and scrub counters (under mu);
	// Stats fills in Dir and Log.
	stats       Stats
	bytesAtSnap int64
	lastState   map[string]stateRec

	stopc chan struct{}
	donec chan struct{}
}

// Open recovers the durable state in dir into store and est, then
// arms the write path: sealed blocks and estimator state flow into the
// log from the moment Open returns. Replay relies on the store's
// strict-append contract to skip snapshot-boundary duplicates. The store
// and estimator must not receive traffic until Open returns.
func Open(dir string, store *tsdb.DB, est *monitor.IngestEstimator, opts Options) (*Durable, error) {
	if store == nil || est == nil {
		return nil, errors.New("wal: Open needs a store and an ingest estimator")
	}
	d := &Durable{
		dir:       dir,
		opts:      opts.withDefaults(),
		store:     store,
		est:       est,
		lastState: make(map[string]stateRec),
		stopc:     make(chan struct{}),
		donec:     make(chan struct{}),
	}
	if err := d.opts.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	log, err := openLog(dir, d.opts)
	if err != nil {
		return nil, err
	}
	d.log = log
	d.bytesAtSnap = log.Stats().Bytes
	store.OnSeal(func(id string, blk tsdb.Block) {
		// The append counts every failure — including append-after-close
		// — into LogStats.Errors, so a dropped block record surfaces as
		// degraded durability in /metrics and the scrub report. Under
		// the shard lock there is nothing else safe to do with the
		// error: no I/O, no logging, no re-entering the store.
		//nyquist:allow-discard appendBlock self-counts failures into LogStats.Errors; the seal hook runs under the shard lock
		_ = d.log.appendBlock(id, blk)
	})
	go d.background()
	return d, nil
}

// Replay returns what boot recovery did.
func (d *Durable) Replay() ReplayInfo { return d.stats.Replay }

// recover loads the newest valid snapshot and replays the segments past
// it, then rewarms the estimator windows from the newest stored points.
func (d *Durable) recover() error {
	begin := time.Now()
	info := &d.stats.Replay

	fromSeg := uint64(0)
	// watermark maps snapshot-restored series to their newest captured
	// timestamp. The segment after the snapshot boundary can re-log a
	// block that straddles it (the active tail at snapshot time plus
	// newer points); points at or before the watermark are
	// snapshot-covered duplicates and must not re-land. The cost is
	// that an equal-timestamped duplicate pair straddling the boundary
	// deduplicates on replay — the lesser evil against double-counting
	// every boundary point.
	watermark := map[string]time.Time{}
	// Latest state record per series wins — WAL records over snapshot
	// ones — applied after the store replay so the estimator sees the
	// final tuning.
	states := map[string]stateRec{}
	snaps, err := listFiles(d.opts.fs, d.dir, snapFmt)
	if err != nil {
		return err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		// The whole file is decoded before anything is applied, so a
		// half-written snapshot never leaves a half-restored store; an
		// incomplete one falls back to the previous.
		snap, ok, err := readSnapshot(d.opts.fs, filepath.Join(d.dir, snapName(snaps[i])), true)
		if err != nil {
			return fmt.Errorf("wal: loading %s: %w", snapName(snaps[i]), err)
		}
		if !ok {
			continue
		}
		for _, s := range snap.series {
			d.store.RestoreSeries(s)
			if s.HaveLast {
				watermark[s.ID] = s.LastTime
			}
		}
		for _, r := range snap.states {
			states[r.st.Series] = r
		}
		info.SnapshotLoaded, info.SnapshotSeq, fromSeg = true, snaps[i], snap.header.nextSeg
		break
	}

	segs, err := listFiles(d.opts.fs, d.dir, segFmt)
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx < fromSeg {
			continue
		}
		records, torn, err := replayFile(d.opts.fs, filepath.Join(d.dir, segName(idx)), segMagic, func(ver uint64, typ byte, payload []byte) error {
			switch typ {
			case recBlock:
				r, err := decodeBlockRec(payload, ver)
				if err != nil {
					return err
				}
				pts, err := r.blk.Points(nil)
				if err != nil {
					return err
				}
				w, hasW := watermark[r.id]
				for _, p := range pts {
					if hasW && !p.Time.After(w) {
						info.SkippedPoints++
						continue
					}
					if err := d.store.Append(r.id, p); err != nil {
						info.SkippedPoints++
						continue
					}
					info.Points++
				}
			case recState:
				r, err := decodeStateRec(payload)
				if err != nil {
					return err
				}
				states[r.st.Series] = r
			}
			// Unknown record types are skipped: a newer writer's records
			// must not brick an older reader.
			return nil
		})
		info.Records += records
		info.Segments++
		if torn {
			info.TornTail = true
		}
		if err != nil {
			return fmt.Errorf("wal: replaying %s: %w", segName(idx), err)
		}
	}
	// Rewarm plan: the newest ~window stored points of every recovered
	// series are re-fed through Observe so estimates (and the retune
	// debounce) pick up where the crashed process left off instead of
	// starting cold. Tails are computed BEFORE states are applied so
	// each restored Samples counter can be reduced by the points about
	// to be re-observed — otherwise every restart would inflate the
	// per-series sample count by up to a window.
	tails := d.rewarmTails()
	for _, r := range states {
		st := r.st
		if fed := int64(len(tails[st.Series])); fed > 0 {
			if st.Samples > fed {
				st.Samples -= fed
			} else {
				st.Samples = 0
			}
		}
		// RestoreState retunes the store to st.HeldRate (the record's
		// retentionHz); only a series the estimator's cap turned away
		// needs the store told directly.
		if d.est.RestoreState(st) {
			info.EstimatorStates++
		} else if r.retentionHz > 0 {
			d.store.SetNyquistRate(st.Series, r.retentionHz)
		}
		d.lastState[st.Series] = r
	}
	for id, pts := range tails {
		for _, p := range pts {
			if !d.est.Observe(id, p) {
				break // MaxSeries cap: stop burning work on this id
			}
		}
	}
	info.Series = len(d.store.IDs())
	info.Duration = time.Since(begin)
	return nil
}

// rewarmTails returns, per recovered series, the newest stored points
// to re-feed through the estimator, as many as it asks for
// (monitor.IngestEstimator.RewarmPoints). Series without restored tuning
// state re-probe their interval from the same tail.
func (d *Durable) rewarmTails() map[string][]series.Point {
	tails := map[string][]series.Point{}
	for _, id := range d.store.IDs() {
		res, err := d.store.Query(id, time.Time{}, time.Time{}, 0)
		if err != nil || len(res.Points) == 0 {
			continue
		}
		pts := res.Points
		if want := d.est.RewarmPoints(id); len(pts) > want {
			pts = pts[len(pts)-want:]
		}
		tails[id] = pts
	}
	return tails
}

// snapshot is one snapshot file's records.
type snapshot struct {
	header snapHeader
	series []tsdb.SeriesSnapshot
	states []stateRec
}

// readSnapshot is the one judge of a snapshot's completeness, for
// recovery and the scrub alike: a complete file has its magic, a header,
// every record's CRC and decode, and a footer whose counts match. An
// incomplete file returns ok=false and a nil error — recovery falls back
// to the previous snapshot. Only an unreadable file or a newer format
// (ErrVersion) is an error: an older snapshot plus the segments that
// survive it would come up as a silently incomplete store. keep=false
// decodes every record and keeps none (the scrub).
func readSnapshot(fsys fileSystem, path string, keep bool) (s snapshot, ok bool, err error) {
	var (
		haveHdr, bad     bool
		nSeries, nStates uint64
		footer           *snapFooter
	)
	_, torn, err := replayFile(fsys, path, snapMagic, func(_ uint64, typ byte, payload []byte) error {
		var derr error
		switch typ {
		case recSnapHeader:
			s.header, derr = decodeSnapHeader(payload)
			if errors.Is(derr, ErrVersion) {
				return derr
			}
			haveHdr = derr == nil
		case recSnapSeries:
			var ss tsdb.SeriesSnapshot
			ss, derr = decodeSeriesSnap(payload, s.header.version)
			nSeries++
			if keep {
				s.series = append(s.series, ss)
			}
		case recSnapState:
			var r stateRec
			r, derr = decodeStateRec(payload)
			nStates++
			if keep {
				s.states = append(s.states, r)
			}
		case recSnapFooter:
			var f snapFooter
			f, derr = decodeSnapFooter(payload)
			footer = &f
		}
		bad = derr != nil
		return derr
	})
	if err != nil && !bad {
		return snapshot{}, false, err
	}
	if bad || torn || !haveHdr || footer == nil || footer.series != nSeries || footer.states != nStates {
		return snapshot{}, false, nil
	}
	return s, true, nil
}

// Sync forces a group commit.
func (d *Durable) Sync() error { return d.log.Sync() }

// Snapshot writes a full block snapshot and compacts the log: rotate the
// live segment (the snapshot boundary), export every series and the
// estimator state to a temp file, fsync+rename it into place, then
// delete the covered segments and older snapshots. Ingest continues
// throughout — the store is export-locked one shard at a time — and a
// crash mid-snapshot is safe at every step (the half-written temp or
// footer-less file is ignored on the next boot).
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

func (d *Durable) snapshotLocked() (err error) {
	defer func() {
		if err != nil {
			d.stats.SnapshotErrors++
		}
	}()
	nextSeg, err := d.log.Rotate()
	if err != nil {
		return err
	}
	tmp := filepath.Join(d.dir, fmt.Sprintf("snap-%08d.tmp", nextSeg))
	f, err := d.opts.fs.OpenFile(tmp, os.O_TRUNC)
	if err != nil {
		return err
	}
	defer d.opts.fs.Remove(tmp) // no-op after the rename
	w := bufio.NewWriterSize(f, 1<<20)
	nSeries, err := d.writeSnapshot(w, nextSeg)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := d.opts.fs.Rename(tmp, filepath.Join(d.dir, snapName(nextSeg))); err != nil {
		return err
	}
	if err := d.opts.fs.SyncDir(d.dir); err != nil {
		// The rename may never reach the disk: keep the segments the
		// snapshot covers, so a crash still recovers from them.
		err = fmt.Errorf("wal: snapshot: sync %s: %w", d.dir, err)
		d.log.noteExternalErr(err)
		return err
	}

	// Compaction: everything before the boundary is now covered. An older
	// snapshot left behind is harmless — recovery reads the newest
	// complete one — so its deletion is best-effort.
	if err := d.log.RemoveBefore(nextSeg); err != nil {
		return err
	}
	_, _, _ = removeBelow(d.opts.fs, d.dir, snapFmt, nextSeg)
	d.stats.Snapshots++
	d.stats.LastSnapshot = time.Now()
	d.stats.SnapshotSeries = nSeries
	d.bytesAtSnap = d.log.Stats().Bytes
	return nil
}

// writeSnapshot writes a snapshot's records behind its magic: the header,
// every series, every estimator state and the footer that counts them.
// It returns the series count.
func (d *Durable) writeSnapshot(w *bufio.Writer, nextSeg uint64) (int, error) {
	if _, err := w.WriteString(snapMagic); err != nil {
		return 0, err
	}
	var e enc
	rec := func(typ byte, fill func(*enc)) error {
		e.openFrame(typ)
		fill(&e)
		_, err := w.Write(e.closeFrame())
		return err
	}
	err := rec(recSnapHeader, func(e *enc) { encodeSnapHeader(e, snapHeader{version: payloadVersion, nextSeg: nextSeg}) })
	if err != nil {
		return 0, err
	}
	nSeries := 0
	err = d.store.ExportSeries(func(s tsdb.SeriesSnapshot) error {
		nSeries++
		return rec(recSnapSeries, func(e *enc) { encodeSeriesSnap(e, s) })
	})
	if err != nil {
		return 0, err
	}
	states := d.est.ExportState()
	for _, st := range states {
		r := stateRec{st: st, retentionHz: d.store.NyquistRate(st.Series)}
		if err := rec(recSnapState, func(e *enc) { encodeStateRec(e, r) }); err != nil {
			return 0, err
		}
		d.lastState[st.Series] = r
	}
	f := snapFooter{series: uint64(nSeries), states: uint64(len(states))}
	return nSeries, rec(recSnapFooter, func(e *enc) { encodeSnapFooter(e, f) })
}

// Scrub re-reads and CRC-verifies the durable files this process is
// responsible for: every segment this session sealed (earlier sessions'
// segments may legitimately carry a torn tail from a crash, so they are
// off limits) and the newest snapshot. A file that fails is counted in
// ScrubCorrupt and into LogStats.Errors — the point is to surface a
// flipped bit while the in-memory copy is still good, not at the next
// boot's replay when it is the only copy left. Returns the files checked
// and the corrupt ones found this pass.
func (d *Durable) Scrub() (checked, corrupt int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Every pass re-reads every file — a segment verified clean last
	// pass can rot before this one, so caching clean results would blind
	// the scrub to exactly what it exists to catch. The set is bounded:
	// compaction deletes sealed segments behind each snapshot.
	from, to, poisoned := d.log.sealedRange()
	for idx := from; idx < to; idx++ {
		_, torn, err := replayFile(d.opts.fs, filepath.Join(d.dir, segName(idx)), segMagic, func(uint64, byte, []byte) error { return nil })
		if errors.Is(err, fs.ErrNotExist) {
			continue // compacted away behind a snapshot
		}
		checked++
		if err == nil && torn && !slices.Contains(poisoned, idx) {
			// This session sealed the segment cleanly; a torn record now
			// is bit rot, not a crash artifact.
			err = ErrCorrupt
		}
		if err != nil {
			corrupt++
			d.log.noteExternalErr(fmt.Errorf("wal: scrub: %s: %w", segName(idx), err))
		}
	}
	if snaps, err := listFiles(d.opts.fs, d.dir, snapFmt); err == nil && len(snaps) > 0 {
		name := snapName(snaps[len(snaps)-1])
		checked++
		if _, ok, err := readSnapshot(d.opts.fs, filepath.Join(d.dir, name), false); !ok {
			if err == nil {
				err = ErrCorrupt
			}
			corrupt++
			d.log.noteExternalErr(fmt.Errorf("wal: scrub: %s: %w", name, err))
		}
	}
	d.stats.ScrubRuns++
	d.stats.ScrubFiles += int64(checked)
	d.stats.ScrubCorrupt += int64(corrupt)
	d.stats.LastScrub = time.Now()
	return checked, corrupt
}

// writeStates appends a state record for every series whose tuning
// changed since the last sweep.
func (d *Durable) writeStates() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.est.ExportState() {
		r := stateRec{st: st, retentionHz: d.store.NyquistRate(st.Series)}
		if prev, ok := d.lastState[st.Series]; ok && prev == r {
			continue
		}
		if err := d.log.appendRec(recState, func(e *enc) { encodeStateRec(e, r) }); err != nil {
			return
		}
		d.lastState[st.Series] = r
	}
}

func (d *Durable) background() {
	defer close(d.donec)
	statec, stopState := ticker(d.opts.StateEvery)
	defer stopState()
	snapc, stopSnap := ticker(d.opts.SnapshotEvery)
	defer stopSnap()
	scrubc, stopScrub := ticker(d.opts.ScrubEvery)
	defer stopScrub()
	for {
		select {
		case <-d.stopc:
			return
		case <-statec:
			d.writeStates()
		case <-scrubc:
			d.Scrub()
		case <-snapc:
			d.mu.Lock()
			grown := d.log.Stats().Bytes-d.bytesAtSnap >= snapshotMinBytes
			if grown {
				if err := d.snapshotLocked(); err != nil {
					fmt.Fprintf(os.Stderr, "wal: background snapshot failed: %v\n", err)
				}
			}
			d.mu.Unlock()
		}
	}
}

// Close makes the remaining state durable and stops the subsystem: the
// stores' active tails are force-sealed into the log, a final state
// sweep is written, and the log is committed and closed. The seal hook
// is detached, so the store outlives Close safely (writes just stop
// being durable).
func (d *Durable) Close() error {
	close(d.stopc)
	<-d.donec
	d.store.SealAll()
	d.writeStates()
	err := d.log.Close()
	d.store.OnSeal(nil)
	return err
}

// Stats reports the subsystem's operator view.
func (d *Durable) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.Dir, st.Log = d.dir, d.log.Stats()
	return st
}
