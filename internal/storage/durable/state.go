package durable

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/storage"
)

// recStateBatch is the only record type on the state log: one complete
// StateBatch per record, so batch atomicity falls out of record framing
// (a torn batch fails its CRC and is truncated as a tail).
const recStateBatch byte = 0x01

// compactBatchRecords caps the records per merged batch emitted by
// compaction, bounding record size in the merged segment.
const compactBatchRecords = 4096

// recMeta is the index entry for one key: just enough to decide, during
// compaction, whether a sealed record is still the latest for its key.
// A (Version, Delete) pair identifies a record: versions are pinned by
// the validator and strictly grow per key, with a put and the tombstone
// deleting it sharing a version but differing in the flag.
type recMeta struct {
	version uint64
	delete  bool
	size    int64
}

// stateStore is the durable StateStore: a write-behind segmented log of
// StateBatch records with an in-memory latest-per-key index driving
// compaction. Values live only on disk; RAM cost is O(keys), not
// O(values) or O(history).
type stateStore struct {
	l *log

	mu        sync.Mutex
	latest    map[string]recMeta // ns\x00key -> latest record meta
	watermark uint64
	garbage   int64 // bytes of superseded records, approximate
	total     int64 // bytes of record payloads appended, approximate

	compactRatio float64
	notify       chan struct{}
	done         chan struct{}
	wg           sync.WaitGroup
}

func stateKey(ns, key string) string { return ns + "\x00" + key }

func openState(dir string, opts storage.Options) (*stateStore, error) {
	s := &stateStore{
		latest:       make(map[string]recMeta),
		compactRatio: opts.CompactGarbageRatio,
		notify:       make(chan struct{}, 1),
		done:         make(chan struct{}),
	}
	if s.compactRatio == 0 {
		s.compactRatio = DefaultCompactGarbageRatio
	}
	l, err := openLog(dir, opts.SegmentBytes, !opts.NoFsync, func(recType byte, payload []byte) error {
		if recType != recStateBatch {
			return fmt.Errorf("%w: unknown state record type 0x%02x", storage.ErrCorrupt, recType)
		}
		batch, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		s.index(batch)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.l = l
	if !opts.NoBackgroundCompaction && s.compactRatio > 0 {
		s.wg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// index folds a batch into the latest-per-key index and the garbage
// accounting. Caller must not hold s.mu.
func (s *stateStore) index(batch storage.StateBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range batch.Records {
		k := stateKey(r.Namespace, r.Key)
		size := recordSize(r)
		if old, ok := s.latest[k]; ok {
			s.garbage += old.size
		}
		s.latest[k] = recMeta{version: r.Version, delete: r.Delete, size: size}
		s.total += size
	}
	if batch.Height > s.watermark {
		s.watermark = batch.Height
	}
}

func recordSize(r storage.StateRecord) int64 {
	return int64(len(r.Namespace) + len(r.Key) + len(r.Value) + 16)
}

func (s *stateStore) Apply(batch storage.StateBatch) error {
	if err := s.l.append(recStateBatch, encodeBatch(batch)); err != nil {
		return err
	}
	s.index(batch)
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return nil
}

// Load replays every durable batch in commit order. Per the StateStore
// contract it runs once on a freshly opened store, before any Apply, so
// the segment files are static underneath it.
func (s *stateStore) Load(fn func(batch storage.StateBatch) error) error {
	return s.l.replayAll(func(recType byte, payload []byte) error {
		if recType != recStateBatch {
			return fmt.Errorf("%w: unknown state record type 0x%02x", storage.ErrCorrupt, recType)
		}
		batch, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		return fn(batch)
	})
}

func (s *stateStore) Watermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Compact merges the sealed-segment prefix of the log, keeping for each
// key only its latest record (including the newest tombstone of a dead
// key — dropping it would lose version continuity across a restart).
// Records superseded by a record in the active segment are dropped:
// correctness does not depend on the index being stable during the
// merge, because a stale record that slips through lands in a segment
// that replays before the active one and is overridden (docs/STORAGE.md
// §5).
func (s *stateStore) Compact() error {
	err := s.l.compact(func(replay func(fn func(recType byte, payload []byte) error) error, emit func(recType byte, payload []byte) error) error {
		prefix := make(map[string]storage.StateRecord)
		var maxHeight uint64
		err := replay(func(recType byte, payload []byte) error {
			if recType != recStateBatch {
				return fmt.Errorf("%w: unknown state record type 0x%02x", storage.ErrCorrupt, recType)
			}
			batch, err := decodeBatch(payload)
			if err != nil {
				return err
			}
			if batch.Height > maxHeight {
				maxHeight = batch.Height
			}
			for _, r := range batch.Records {
				prefix[stateKey(r.Namespace, r.Key)] = r
			}
			return nil
		})
		if err != nil {
			return err
		}

		keys := make([]string, 0, len(prefix))
		for k := range prefix {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s.mu.Lock()
		survivors := keys[:0]
		for _, k := range keys {
			cand := prefix[k]
			if m, ok := s.latest[k]; ok && m.version == cand.Version && m.delete == cand.Delete {
				survivors = append(survivors, k)
			}
		}
		s.mu.Unlock()

		// Chunked re-emission at the prefix's high-water height; an empty
		// merge still emits one batch so the watermark survives compaction
		// even when the active segment carries no batches yet.
		batch := storage.StateBatch{Height: maxHeight}
		flush := func() error {
			payload := encodeBatch(batch)
			batch.Records = batch.Records[:0]
			return emit(recStateBatch, payload)
		}
		for _, k := range survivors {
			batch.Records = append(batch.Records, prefix[k])
			if len(batch.Records) == compactBatchRecords {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if len(batch.Records) > 0 || len(survivors) == 0 {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Reset the garbage estimate: the merged prefix now holds exactly one
	// record per surviving key. Garbage within the active segment is
	// undercounted until it seals — the trigger is a heuristic, not an
	// exact measure.
	s.mu.Lock()
	var live int64
	for _, m := range s.latest {
		live += m.size
	}
	s.garbage = 0
	s.total = live
	s.mu.Unlock()
	return nil
}

// shouldCompact implements the automatic trigger: at least one sealed
// segment, and more than compactRatio of the appended bytes superseded.
func (s *stateStore) shouldCompact() bool {
	sealed, sealedBytes := s.l.sealedSnapshot()
	if len(sealed) == 0 || sealedBytes == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total > 0 && float64(s.garbage)/float64(s.total) > s.compactRatio
}

func (s *stateStore) compactLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.notify:
			if s.shouldCompact() {
				// Best effort: a failed background compaction leaves the
				// log exactly as it was; the next Apply retriggers.
				_ = s.Compact()
			}
		}
	}
}

func (s *stateStore) Close() error {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.wg.Wait()
	return s.l.close()
}

// Batch payload encoding (docs/STORAGE.md §3): uvarint height, uvarint
// record count, then per record: len-prefixed namespace, len-prefixed
// key, uvarint version, one flag byte (bit0 = delete), len-prefixed
// value.

func encodeBatch(b storage.StateBatch) []byte {
	buf := codec.AppendUvarint(nil, b.Height)
	buf = codec.AppendUvarint(buf, uint64(len(b.Records)))
	for _, r := range b.Records {
		buf = codec.AppendString(buf, r.Namespace)
		buf = codec.AppendString(buf, r.Key)
		buf = codec.AppendUvarint(buf, r.Version)
		var flags byte
		if r.Delete {
			flags = 1
		}
		buf = append(buf, flags)
		buf = codec.AppendBytes(buf, r.Value)
	}
	return buf
}

func decodeBatch(payload []byte) (storage.StateBatch, error) {
	d := codec.NewReader(payload)
	var b storage.StateBatch
	b.Height = d.Uvarint()
	n := d.Uvarint()
	if n > uint64(len(payload)) { // each record takes >= 1 byte
		return b, fmt.Errorf("%w: state batch claims %d records in %d bytes", storage.ErrCorrupt, n, len(payload))
	}
	b.Records = make([]storage.StateRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		var r storage.StateRecord
		r.Namespace = d.String()
		r.Key = d.String()
		r.Version = d.Uvarint()
		r.Delete = d.Byte()&1 != 0
		r.Value = append([]byte(nil), d.Bytes()...)
		b.Records = append(b.Records, r)
	}
	if err := d.Done(); err != nil {
		return storage.StateBatch{}, fmt.Errorf("%w: state batch: %v", storage.ErrCorrupt, err)
	}
	return b, nil
}
