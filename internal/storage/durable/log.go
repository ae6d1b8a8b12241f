// Package durable implements the on-disk storage backend: append-only
// segment files with CRC-framed records, batched group-commit fsync,
// crash-recovery replay on open (truncating torn tails) and prefix
// compaction. docs/STORAGE.md is the authoritative specification of the
// format and the recovery algorithm; this package is its implementation.
//
// The backend registers itself with the storage factory under the name
// "durable" (import for side effect, as with database/sql drivers).
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// Every record is one storage.AppendRecord frame whose body is 1 type
// byte followed by the payload (docs/STORAGE.md §2).

// DefaultSegmentBytes is the active-segment size cap before sealing.
const DefaultSegmentBytes = 4 << 20

// DefaultCompactGarbageRatio triggers compaction when sealed segments
// are more than half superseded bytes.
const DefaultCompactGarbageRatio = 0.5

// log is one append-only segmented record log: a directory of
// seg-%08d.log files of which the highest-numbered is the active (write)
// segment and the rest are sealed (immutable). The active segment is the
// write-ahead log: records become durable in the order appended, and a
// crash can only tear its tail, which open truncates.
type log struct {
	dir          string
	segmentBytes int64
	fsync        bool

	// mu serializes writes, sealing and the sealed-segment list.
	mu         sync.Mutex
	active     *os.File
	activeID   uint64
	activeSize int64
	sealed     []uint64 // sealed segment ids, ascending
	sealedSize map[uint64]int64
	closed     bool
	writeErr   error // sticky: the log is broken after a failed write

	// writeSeq numbers appends; syncSeq is the highest append known
	// fsynced. Together they implement group commit: one fsync covers
	// every append completed before it started.
	writeSeq uint64 // written under mu, read atomically
	syncMu   sync.Mutex
	syncSeq  uint64
	syncErr  error  // sticky: the log is broken after a failed fsync
	syncs    uint64 // fsyncs of segment data, under syncMu

	// compactMu serializes compactions.
	compactMu sync.Mutex
}

func segName(id uint64) string { return fmt.Sprintf("seg-%08d.log", id) }

const compactTmp = "compact.tmp"

// openLog opens (or creates) the log under dir, replaying every intact
// record through fn in order. A torn tail in the highest segment is
// truncated; corruption anywhere else fails with storage.ErrCorrupt.
func openLog(dir string, segmentBytes int64, fsync bool, fn func(recType byte, payload []byte) error) (*log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: mkdir %s: %v", storage.ErrIO, dir, err)
	}
	// A leftover merge temp means a crash mid-compaction: the merged
	// segment was never installed, the source segments are intact.
	_ = os.Remove(filepath.Join(dir, compactTmp))

	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	l := &log{dir: dir, segmentBytes: segmentBytes, fsync: fsync, sealedSize: make(map[uint64]int64)}

	ids, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		last := i == len(ids)-1
		size, err := l.replaySegment(id, last, fn)
		if err != nil {
			return nil, err
		}
		if last {
			l.activeID = id
			l.activeSize = size
		} else {
			l.sealed = append(l.sealed, id)
			l.sealedSize[id] = size
		}
	}
	if len(ids) == 0 {
		l.activeID = 1
	}
	f, err := os.OpenFile(l.segPath(l.activeID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: open segment: %v", storage.ErrIO, err)
	}
	l.active = f
	return l, nil
}

func (l *log) segPath(id uint64) string { return filepath.Join(l.dir, segName(id)) }

func (l *log) listSegments() ([]uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("%w: readdir: %v", storage.ErrIO, err)
	}
	var ids []uint64
	for _, e := range entries {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.log", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// replaySegment scans one segment, calling fn per intact record, and
// returns the number of valid bytes. With repair set (the last segment,
// at open) a bad record that runs to the end of the file is a torn tail:
// the file is truncated to the last intact record. Any other bad record
// is corruption (docs/STORAGE.md §6).
func (l *log) replaySegment(id uint64, repair bool, fn func(recType byte, payload []byte) error) (int64, error) {
	path := l.segPath(id)
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("%w: open %s: %v", storage.ErrIO, path, err)
	}
	defer f.Close()

	var offset int64
	for {
		body, err := storage.ReadRecord(f)
		if err == io.EOF {
			return offset, nil
		}
		if errors.Is(err, storage.ErrCorrupt) {
			if !repair || !atEOF(f) {
				return 0, fmt.Errorf("%w at %s+%d", err, filepath.Base(path), offset)
			}
			if err := os.Truncate(path, offset); err != nil {
				return 0, fmt.Errorf("%w: truncate torn tail of %s: %v", storage.ErrIO, path, err)
			}
			return offset, nil
		}
		if err != nil {
			return 0, fmt.Errorf("%s+%d: %w", filepath.Base(path), offset, err)
		}
		if err := fn(body[0], body[1:]); err != nil {
			return 0, err
		}
		offset += storage.RecordHeaderLen + int64(len(body))
	}
}

// atEOF reports whether f's read position is at the end of the file, i.e.
// whether the record that just failed was the last thing in the segment.
func atEOF(f *os.File) bool {
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return false
	}
	fi, err := f.Stat()
	return err == nil && pos >= fi.Size()
}

// frame renders one record.
func frame(recType byte, payload []byte) []byte {
	body := make([]byte, 0, 1+len(payload))
	body = append(append(body, recType), payload...)
	return storage.AppendRecord(nil, body)
}

// append writes one record and group-commits it: the call returns once
// the record is fsynced, sharing the fsync with every append completed
// before the sync started.
func (l *log) append(recType byte, payload []byte) error {
	if 1+len(payload) > storage.MaxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds the %d-byte limit", 1+len(payload), storage.MaxRecordBytes)
	}
	buf := frame(recType, payload)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return storage.ErrClosed
	}
	if l.writeErr != nil {
		err := l.writeErr
		l.mu.Unlock()
		return err
	}
	if l.activeSize >= l.segmentBytes && l.activeSize > 0 {
		if err := l.sealLocked(); err != nil {
			l.writeErr = err
			l.mu.Unlock()
			return err
		}
	}
	n, err := l.active.Write(buf)
	if err != nil || n != len(buf) {
		// Roll the partial frame back so the segment stays parseable;
		// if even that fails, recovery's torn-tail truncation covers it.
		_ = l.active.Truncate(l.activeSize)
		l.writeErr = fmt.Errorf("%w: append: %v", storage.ErrIO, err)
		err := l.writeErr
		l.mu.Unlock()
		return err
	}
	l.activeSize += int64(len(buf))
	atomic.AddUint64(&l.writeSeq, 1)
	seq := atomic.LoadUint64(&l.writeSeq)
	f := l.active
	l.mu.Unlock()

	return l.syncTo(f, seq)
}

// syncTo ensures append seq is fsynced. The first caller to arrive
// fsyncs and advances syncSeq to the latest completed write, so
// concurrent appenders piggyback on one fsync (group commit).
func (l *log) syncTo(f *os.File, seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncErr != nil {
		return l.syncErr
	}
	if l.syncSeq >= seq {
		return nil
	}
	// Every write numbered <= covered was fully in the file before this
	// fsync starts.
	covered := atomic.LoadUint64(&l.writeSeq)
	if l.fsync {
		l.syncs++
		if err := f.Sync(); err != nil {
			l.syncErr = fmt.Errorf("%w: fsync: %v", storage.ErrIO, err)
			return l.syncErr
		}
	}
	l.syncSeq = covered
	return nil
}

// sealLocked fsyncs and closes the active segment, records it sealed and
// opens the next one. Caller holds l.mu.
func (l *log) sealLocked() error {
	l.syncMu.Lock()
	if l.fsync {
		l.syncs++
		if err := l.active.Sync(); err != nil {
			l.syncMu.Unlock()
			return fmt.Errorf("%w: seal fsync: %v", storage.ErrIO, err)
		}
	}
	l.syncSeq = atomic.LoadUint64(&l.writeSeq)
	err := l.active.Close()
	l.syncMu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: seal close: %v", storage.ErrIO, err)
	}
	l.sealed = append(l.sealed, l.activeID)
	l.sealedSize[l.activeID] = l.activeSize
	l.activeID++
	f, err := os.OpenFile(l.segPath(l.activeID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("%w: open segment: %v", storage.ErrIO, err)
	}
	l.active = f
	l.activeSize = 0
	return l.syncDir()
}

// syncDir fsyncs the log directory so segment creations and renames are
// durable.
func (l *log) syncDir() error {
	if !l.fsync {
		return nil
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("%w: open dir: %v", storage.ErrIO, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("%w: fsync dir: %v", storage.ErrIO, err)
	}
	return nil
}

// replayAll re-scans every segment, sealed and active, in order. The
// caller must guarantee no concurrent appends (it backs Load, which by
// contract runs once on a freshly opened store before any append, and
// the block store's ReadAll, which holds off its appends), so the scan
// never truncates: any framing failure is corruption.
func (l *log) replayAll(fn func(recType byte, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return storage.ErrClosed
	}
	ids := append(append([]uint64(nil), l.sealed...), l.activeID)
	l.mu.Unlock()
	for _, id := range ids {
		if _, err := l.replaySegment(id, false, fn); err != nil {
			return err
		}
	}
	return nil
}

// sealedSnapshot returns the current sealed ids and their total size.
func (l *log) sealedSnapshot() ([]uint64, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := append([]uint64(nil), l.sealed...)
	var total int64
	for _, id := range ids {
		total += l.sealedSize[id]
	}
	return ids, total
}

// compact merges every segment sealed at the time of the call into one.
// build receives a replay function over the sealed records (in log
// order) and an emit function appending records to the merged segment;
// it decides what survives. Appends to the active segment proceed
// concurrently — sealed segments are immutable.
func (l *log) compact(build func(replay func(fn func(recType byte, payload []byte) error) error, emit func(recType byte, payload []byte) error) error) error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	ids, _ := l.sealedSnapshot()
	if len(ids) == 0 {
		return nil
	}
	mergedID := ids[len(ids)-1]

	tmpPath := filepath.Join(l.dir, compactTmp)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("%w: compact tmp: %v", storage.ErrIO, err)
	}
	var mergedSize int64
	emit := func(recType byte, payload []byte) error {
		buf := frame(recType, payload)
		if _, err := tmp.Write(buf); err != nil {
			return fmt.Errorf("%w: compact write: %v", storage.ErrIO, err)
		}
		mergedSize += int64(len(buf))
		return nil
	}
	replay := func(fn func(recType byte, payload []byte) error) error {
		for _, id := range ids {
			if _, err := l.replaySegment(id, false, fn); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(replay, emit); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if l.fsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("%w: compact fsync: %v", storage.ErrIO, err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("%w: compact close: %v", storage.ErrIO, err)
	}
	// Install: the merged file atomically replaces the highest sealed
	// segment, then the lower ones are removed. A crash between the two
	// steps leaves stale low segments whose records are superseded by
	// the merged segment replaying after them — state converges
	// identically (docs/STORAGE.md §5).
	if err := os.Rename(tmpPath, l.segPath(mergedID)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("%w: compact rename: %v", storage.ErrIO, err)
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	l.mu.Lock()
	keep := l.sealed[:0]
	for _, id := range l.sealed {
		if id > mergedID {
			keep = append(keep, id)
		}
	}
	l.sealed = append([]uint64{mergedID}, keep...)
	for _, id := range ids[:len(ids)-1] {
		delete(l.sealedSize, id)
		_ = os.Remove(l.segPath(id))
	}
	l.sealedSize[mergedID] = mergedSize
	l.mu.Unlock()
	return l.syncDir()
}

// failWrites injects a sticky write failure: every subsequent append
// fails with err before touching the file. Crash-recovery tests use it
// to model a peer dying between durability points.
func (l *log) failWrites(err error) {
	l.mu.Lock()
	l.writeErr = err
	l.mu.Unlock()
}

func (l *log) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	var errs []error
	if l.fsync && l.writeErr == nil {
		if err := l.active.Sync(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := l.active.Close(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%w: close: %v", storage.ErrIO, errors.Join(errs...))
	}
	return nil
}
