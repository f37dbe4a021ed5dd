// Package wal is the durability leg of the serving pipeline: a
// write-ahead log plus block snapshots that make nyquistd restart-safe.
// Everything the store and the estimate-on-ingest hook hold lives in
// memory; without this package a restart silently discards exactly the
// long-horizon history the paper's estimate→retain loop exists to
// preserve.
//
// The design leans on a property the storage engine already has: the
// compressed tsdb.Block is a byte-exact, self-delimiting unit. The log
// therefore never records individual points — it records sealed blocks
// (via the store's seal hook) plus periodic per-series tuning state
// (locked poll interval, trusted Nyquist rate), framed as
// length-prefixed, CRC-32C-checked records in numbered segment files.
// Appends land in the log's pending buffer and a group-commit flusher
// writes and fsyncs it on a fixed cadence, so the ingest hot path never
// waits on the disk. Every disk operation goes through one filesystem seam
// (fs.go), and a failed write or fsync is sticky: the segment is poisoned,
// never synced again, and the next segment takes all it left unsynced.
// A series' open run (its unsealed points) reaches disk only inside a
// snapshot, which exports it. So a SIGKILL loses, per series, exactly the
// points accepted after the later of two instants: its last seal whose
// record was fsynced and the last completed snapshot.
//
// On boot the Durable layer loads the newest valid snapshot, replays
// every later segment into the store (out-of-order duplicates from the
// snapshot boundary are skipped by the store's strict-append contract),
// restores estimator tuning state, and rewarms the estimator windows
// from the newest stored points. A background compactor periodically
// writes a new snapshot — the full store exported series by series,
// sealed blocks verbatim — and deletes the segments it covers, bounding
// both replay time and disk use.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// Record types. Segment files hold block/state records; snapshot files
// hold the snap* types.
const (
	recBlock      byte = 1 // one sealed raw block of one series
	recState      byte = 2 // one series' estimator/retention tuning state
	recSnapHeader byte = 3 // snapshot header: format version + next segment
	recSnapSeries byte = 4 // one series' full retention state
	recSnapState  byte = 5 // one series' estimator tuning state
	recSnapFooter byte = 6 // snapshot footer: record counts (completeness proof)
)

// A framed file opens with an 8-byte magic: a 6-byte family, one version
// digit and a newline; the constants below carry the newest version this
// build reads (and the one it writes). A segment's digit is the version
// of the block payloads in its records; a snapshot carries that version
// in its header record instead (snapHeader.version), so its container
// digit stays 1.
//
// Payload version 1 is the all-XOR block codec; version 2 puts a tag byte
// in front of every block payload (see tsdb's block.go). A version-1
// payload is exactly a version-2 XOR payload without the tag, so replay
// prepends a zero byte and both go through the one decoder. This build
// writes version 2 only: a directory is upgraded in place, file by file,
// and an older build cannot read it back.
const (
	segMagic  = "NYQWAL2\n"
	snapMagic = "NYQSNP1\n"
	// payloadVersion is the block-payload version this build writes:
	// segMagic's digit.
	payloadVersion = 2
	// maxRecordBytes bounds one record so replay of a corrupt length
	// prefix cannot attempt an absurd allocation.
	maxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when a segment or snapshot record fails its
// CRC or decodes to an impossible shape.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrVersion is returned for a segment or snapshot written in a format
// newer than this build reads. It stops recovery: skipping the file as if
// it were torn would bring the store up without its data.
var ErrVersion = errors.New("wal: unsupported format version")

// checkVersion refuses a format version outside [1, newest].
func checkVersion(what string, v, newest uint64) error {
	if v < 1 || v > newest {
		return fmt.Errorf("%w: %s is version %d, this build reads 1 to %d", ErrVersion, what, v, newest)
	}
	return nil
}

// LogStats is the log's operator view.
type LogStats struct {
	// Segments is the number of live segment files (including current).
	Segments int
	// Bytes is the total size of the live segment files, counting
	// records not yet flushed.
	Bytes int64
	// Records counts records appended this session.
	Records int64
	// Syncs counts fsyncs issued this session.
	Syncs int64
	// Rotations counts segment rotations this session (size-triggered
	// plus snapshot-boundary rotations).
	Rotations int64
	// Errors counts failed appends, syncs and rotations this session —
	// a non-zero value means durability is degraded (disk full, EIO)
	// even though ingest keeps serving; LastError is the most recent
	// failure. Surfaced through /api/v1/stats so the condition is
	// visible before a crash makes it fatal.
	Errors    int64
	LastError string
	// UnsyncedAge is how long the oldest append not yet covered by an
	// fsync has been waiting (0 when everything appended is durable). It
	// stays near FsyncEvery on a healthy disk; growth is the lag between
	// acked and durable.
	UnsyncedAge time.Duration
}

// Log is an append-only segment log. Appends are safe for concurrent
// use; one background flusher provides the group commit.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        file
	seg      uint64 // current segment index
	startSeg uint64 // first segment opened by this session (scrub floor)
	segBytes int64  // bytes written to the current segment
	oldBytes int64  // bytes in older (already sealed) live segments
	// pending is what the live segment takes at its next sync: its magic
	// while it has had no good sync (headed), then every record appended
	// since the last good one. Only a good fsync clears it, so a segment
	// poisoned by a failed write or fsync hands all of it to the next.
	pending  []byte
	headed   bool
	poisoned bool
	// poisonedSegs are the sealed segments a failed write or fsync
	// poisoned: a torn tail there is that failure, counted when it
	// happened, with every record past it landed again in a later segment.
	poisonedSegs []uint64
	// st holds the counters; Stats fills in Bytes and UnsyncedAge.
	st LogStats
	// dirtySince is when the oldest write not yet fsynced was buffered;
	// zero when the segment is clean.
	dirtySince time.Time
	closed     bool
	// rec is the framing buffer every appended record is built in, under
	// mu; it grows to the largest record appended.
	rec enc

	stopc chan struct{}
	donec chan struct{}
}

// A segment or snapshot file is named by its index through one of these
// formats.
const (
	segFmt  = "seg-%08d.wal"
	snapFmt = "snap-%08d.snap"
)

func segName(idx uint64) string  { return fmt.Sprintf(segFmt, idx) }
func snapName(idx uint64) string { return fmt.Sprintf(snapFmt, idx) }

// listFiles returns the indices of the files in dir named by format
// (segFmt or snapFmt), sorted.
func listFiles(fsys fileSystem, dir, format string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	scan := strings.Replace(format, "%08d", "%d", 1) // %08d scans at most eight digits
	var out []uint64
	for _, e := range ents {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), scan, &idx); n == 1 && e.Name() == fmt.Sprintf(format, idx) {
			out = append(out, idx)
		}
	}
	slices.Sort(out)
	return out, nil
}

// removeBelow deletes the files in dir named by format whose index is
// below idx, returning how many went, their bytes and the first error (a
// file that fails to delete is left for the next pass).
func removeBelow(fsys fileSystem, dir, format string, idx uint64) (n int, bytes int64, err error) {
	idxs, err := listFiles(fsys, dir, format)
	if err != nil {
		return 0, 0, err
	}
	for _, i := range idxs {
		if i >= idx {
			break
		}
		path := filepath.Join(dir, fmt.Sprintf(format, i))
		fi, serr := fsys.Stat(path)
		if rerr := fsys.Remove(path); rerr != nil {
			if err == nil {
				err = rerr
			}
			continue
		}
		n++
		if serr == nil {
			bytes += fi.Size()
		}
	}
	return n, bytes, err
}

// openLog opens dir for appending: existing segments are left untouched
// (boot replays them; compaction deletes them) and a fresh segment one
// past the newest becomes the append target.
func openLog(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	segs, err := listFiles(opts.fs, dir, segFmt)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	var oldBytes int64
	for _, idx := range segs {
		if idx >= next {
			next = idx + 1
		}
		if fi, err := opts.fs.Stat(filepath.Join(dir, segName(idx))); err == nil {
			oldBytes += fi.Size()
		}
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		seg:      next,
		startSeg: next,
		oldBytes: oldBytes,
		st:       LogStats{Segments: len(segs) + 1},
		stopc:    make(chan struct{}),
		donec:    make(chan struct{}),
	}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	go l.flushLoop()
	return l, nil
}

// openSegment creates segment idx as the append target. Its magic, and
// the records a poisoned segment left unsynced, land at its first sync.
// Caller holds mu (or is the constructor).
func (l *Log) openSegment(idx uint64) error {
	f, err := l.opts.fs.OpenFile(filepath.Join(l.dir, segName(idx)), os.O_EXCL)
	if err != nil {
		return err
	}
	if !l.headed {
		l.pending, l.headed = slices.Insert(l.pending, 0, []byte(segMagic)...), true
	}
	l.f, l.seg, l.poisoned = f, idx, false
	l.segBytes = int64(len(l.pending))
	l.markDirty()
	return nil
}

// markDirty stamps the first write after a sync: one clock read per group
// commit, not per append. Caller holds mu (or is the constructor).
func (l *Log) markDirty() {
	if l.dirtySince.IsZero() {
		l.dirtySince = time.Now()
	}
}

// A framed record is u32le payload length, type byte, payload, u32le
// CRC-32C over type+payload, built whole in one enc: openFrame reserves
// the header, the payload is encoded after it, closeFrame fills in the
// length and appends the CRC.
const frameHeader = 5

func (e *enc) openFrame(typ byte) { e.b = append(e.b[:0], 0, 0, 0, 0, typ) }

func (e *enc) closeFrame() []byte {
	binary.LittleEndian.PutUint32(e.b, uint32(len(e.b)-frameHeader))
	e.b = binary.LittleEndian.AppendUint32(e.b, crc32.Checksum(e.b[frameHeader-1:], crcTable))
	return e.b
}

// errBacklog refuses a record while a failing disk has left a segment's
// worth of records unsynced: pending stays bounded through an outage.
var errBacklog = errors.New("wal: unsynced backlog full, record dropped")

// appendRec frames one record into the live segment, fill encoding its
// payload straight into the log's framing buffer: once that buffer and
// pending have grown, an append allocates nothing. With a non-negative
// FsyncEvery the record waits in pending and becomes durable at the next
// group commit — no file I/O happens on the caller's path, so the seal
// hook appending under a shard lock only pays a mutex and the encode. A
// negative FsyncEvery commits before returning. Failures are counted in
// LogStats.Errors as well as returned.
func (l *Log) appendRec(typ byte, fill func(*enc)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		// A record offered after Close (a seal racing shutdown) is a
		// record the WAL does not hold: count it as degraded
		// durability, not just a caller error.
		return l.noteErr(os.ErrClosed)
	}
	if int64(len(l.pending)) >= l.opts.segmentBytes {
		return l.noteErr(errBacklog)
	}
	l.rec.openFrame(typ)
	fill(&l.rec)
	rec := l.rec.closeFrame()
	l.pending = append(l.pending, rec...)
	l.segBytes += int64(len(rec))
	l.st.Records++
	l.markDirty()
	if l.opts.FsyncEvery < 0 {
		return l.commitLocked()
	}
	return nil
}

// commitLocked is one group commit: it rotates a segment grown past
// segmentBytes, then syncs. Caller holds mu.
func (l *Log) commitLocked() error {
	if l.segBytes >= l.opts.segmentBytes {
		if _, err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return l.syncLocked()
}

// sealedRange returns the half-open segment-index interval [from, to)
// this session has written and sealed: from is the first segment the
// session opened, to the live append target. Segments below from belong
// to earlier sessions and may legitimately end in a torn tail (a crash),
// so only this range is fair game for corruption checks — less the
// poisoned segments in it, returned too.
func (l *Log) sealedRange() (from, to uint64, poisoned []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.startSeg, l.seg, slices.Clone(l.poisonedSegs)
}

// noteExternalErr counts a durability failure detected outside the
// append path (the scrub, a snapshot's directory fsync) so it surfaces
// through LogStats.Errors like any other degradation.
func (l *Log) noteExternalErr(err error) {
	l.mu.Lock()
	l.noteErr(err)
	l.mu.Unlock()
}

// noteErr records a durability failure in the stats. Caller holds mu.
func (l *Log) noteErr(err error) error {
	if err != nil {
		l.st.Errors++
		l.st.LastError = err.Error()
	}
	return err
}

// syncLocked writes pending to the live segment and fsyncs it. A failed
// write or fsync is sticky: the kernel may have dropped the segment's
// unsynced pages, and a later fsync of the same file could succeed over
// that hole and ack the records past it. So the segment is poisoned,
// never synced again: the next sync first rotates to a new segment, which
// takes pending whole. Failures are counted in LogStats.Errors as well as
// returned. Caller holds mu.
func (l *Log) syncLocked() error {
	if l.poisoned {
		if _, err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if l.dirtySince.IsZero() {
		return nil
	}
	begin := time.Now()
	_, err := l.f.Write(l.pending)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.poisoned = true
		return l.noteErr(err)
	}
	l.pending, l.headed = l.pending[:0], false
	l.dirtySince = time.Time{}
	l.st.Syncs++
	if l.opts.SyncObserver != nil {
		l.opts.SyncObserver(time.Since(begin))
	}
	return nil
}

// Sync forces a group commit: everything appended so far is durable
// when it returns.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	return l.syncLocked()
}

// rotateLocked seals the current segment — syncs it, unless it is
// poisoned, and closes it — and opens the next one. Returns the new
// current segment index. Failures are counted in LogStats.Errors as well
// as returned. Caller holds mu.
func (l *Log) rotateLocked() (uint64, error) {
	if !l.poisoned {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	old, oldSeg, poisoned := l.f, l.seg, l.poisoned
	oldBytes, empty := l.segBytes-int64(len(l.pending)), l.headed // what its good syncs landed
	if err := l.openSegment(l.seg + 1); err != nil {
		return 0, l.noteErr(err)
	}
	l.noteErr(old.Close())
	l.st.Rotations++
	if empty && l.noteErr(l.opts.fs.Remove(filepath.Join(l.dir, segName(oldSeg)))) == nil {
		// No sync of it ever succeeded, so all it held rides in pending:
		// a disk that keeps failing leaves no file per retry.
		return l.seg, nil
	}
	if poisoned {
		l.poisonedSegs = append(l.poisonedSegs, oldSeg)
	}
	l.oldBytes += oldBytes
	l.st.Segments++
	return l.seg, nil
}

// Rotate seals the current segment and starts a new one, returning the
// new segment's index: records appended after Rotate land in segments ≥
// the returned index, and records appended before it below — the
// snapshot boundary contract. So a poisoned segment's carried records are
// synced into a segment of their own first.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, os.ErrClosed
	}
	if l.poisoned {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return l.rotateLocked()
}

// RemoveBefore deletes segment files with index < seg — the compaction
// step after a successful snapshot covering them.
func (l *Log) RemoveBefore(seg uint64) error {
	n, bytes, err := removeBelow(l.opts.fs, l.dir, segFmt, seg)
	l.mu.Lock()
	l.st.Segments -= n
	l.oldBytes -= bytes
	l.mu.Unlock()
	return err
}

// Close seals the log: final group commit, stop the flusher, close the
// file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stopc)
	<-l.donec
	return err
}

func (l *Log) flushLoop() {
	defer close(l.donec)
	tick, stop := ticker(l.opts.FsyncEvery) // nil in synchronous mode
	defer stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-tick:
			l.mu.Lock()
			if !l.closed {
				// Size-based rotation happens here, not in Append, so
				// the fsyncs and the file create it costs never sit
				// under a caller's lock; a segment can overshoot
				// segmentBytes by at most one group-commit window of
				// traffic. The commit counts its own failures.
				_ = l.commitLocked()
			}
			l.mu.Unlock()
		}
	}
}

// ticker returns a channel that ticks every period and the function that
// stops it; a period ≤ 0 returns a nil channel, which never fires.
func ticker(period time.Duration) (<-chan time.Time, func()) {
	if period <= 0 {
		return nil, func() {}
	}
	t := time.NewTicker(period)
	return t.C, t.Stop
}

// Stats reports the log's current footprint.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	st.Bytes = l.oldBytes + l.segBytes
	if !l.dirtySince.IsZero() {
		st.UnsyncedAge = time.Since(l.dirtySince)
	}
	return st
}

// replayFile walks one framed file (segment or snapshot; magic is the
// kind's newest), calling fn with the file's own version digit and every
// intact record. It stops cleanly at a torn tail — a truncated or
// CRC-failing record, the expected shape after a crash — reporting
// torn=true; fn errors abort the walk, and so does a version newer than
// magic's (ErrVersion).
func replayFile(fsys fileSystem, path, magic string, fn func(ver uint64, typ byte, payload []byte) error) (records int64, torn bool, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	head := make([]byte, len(magic))
	digit := len(magic) - 2
	if _, err := io.ReadFull(r, head); err != nil || string(head[:digit]) != magic[:digit] || head[digit+1] != '\n' {
		// A missing or wrong magic means the file never finished its
		// header write (or is foreign); treat as fully torn.
		return 0, true, nil
	}
	ver := uint64(head[digit] - '0')
	if err := checkVersion(filepath.Base(path), ver, uint64(magic[digit]-'0')); err != nil {
		return 0, false, err
	}
	var hdr [5]byte
	payload := make([]byte, 0, 64<<10)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return records, false, nil
			}
			return records, true, nil // torn mid-header
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n > maxRecordBytes {
			return records, true, nil
		}
		typ := hdr[4]
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return records, true, nil
		}
		var tail [4]byte
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			return records, true, nil
		}
		crc := crc32.Update(crc32.Checksum(hdr[4:5], crcTable), crcTable, payload)
		if crc != binary.LittleEndian.Uint32(tail[:]) {
			return records, true, nil
		}
		if err := fn(ver, typ, payload); err != nil {
			return records, false, err
		}
		records++
	}
}
