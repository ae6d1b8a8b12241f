package durable

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/storage"
)

// Record types on the pvt log (docs/STORAGE.md §4). The log is a
// set-mutation journal: schedule/record add an entry, complete/resolve
// remove it, and replaying the log in order reconstructs the pending
// sets exactly.
const (
	recPurgeSchedule byte = 0x01
	recPurgeComplete byte = 0x02
	recMissing       byte = 0x03
	recMissingDone   byte = 0x04
)

// pvtCompactDeadRecords triggers a rewrite of the pvt log once this many
// appended records no longer contribute to the pending sets.
const pvtCompactDeadRecords = 1024

// pvtStore is the durable PvtStore: the BlockToLive purge queue and the
// missing-private-data records, kept in memory as sets and journaled to
// a segmented log. Entries are tiny, so compaction simply re-emits the
// live sets from memory instead of re-reading segments.
type pvtStore struct {
	l *log

	mu       sync.Mutex
	purges   map[storage.PurgeEntry]bool
	missing  map[storage.MissingEntry]bool
	appended int64 // records appended since the last compaction
}

func openPvt(dir string, opts storage.Options) (*pvtStore, error) {
	s := &pvtStore{
		purges:  make(map[storage.PurgeEntry]bool),
		missing: make(map[storage.MissingEntry]bool),
	}
	l, err := openLog(dir, opts.SegmentBytes, !opts.NoFsync, s.replayRecord)
	if err != nil {
		return nil, err
	}
	s.l = l
	return s, nil
}

func (s *pvtStore) replayRecord(recType byte, payload []byte) error {
	d := codec.NewReader(payload)
	var err error
	switch recType {
	case recPurgeSchedule:
		e := storage.PurgeEntry{At: d.Uvarint(), Namespace: d.String(), Key: d.String()}
		if err = d.Done(); err == nil {
			s.purges[e] = true
		}
	case recPurgeComplete:
		upTo := d.Uvarint()
		if err = d.Done(); err == nil {
			for e := range s.purges {
				if e.At <= upTo {
					delete(s.purges, e)
				}
			}
		}
	case recMissing:
		e := storage.MissingEntry{TxID: d.String(), Collection: d.String()}
		if err = d.Done(); err == nil {
			s.missing[e] = true
		}
	case recMissingDone:
		e := storage.MissingEntry{TxID: d.String(), Collection: d.String()}
		if err = d.Done(); err == nil {
			delete(s.missing, e)
		}
	default:
		return fmt.Errorf("%w: unknown pvt record type 0x%02x", storage.ErrCorrupt, recType)
	}
	if err != nil {
		return fmt.Errorf("%w: pvt record 0x%02x: %v", storage.ErrCorrupt, recType, err)
	}
	return nil
}

func encodePurge(e storage.PurgeEntry) []byte {
	buf := codec.AppendUvarint(nil, e.At)
	buf = codec.AppendString(buf, e.Namespace)
	return codec.AppendString(buf, e.Key)
}

func encodeMissing(e storage.MissingEntry) []byte {
	buf := codec.AppendString(nil, e.TxID)
	return codec.AppendString(buf, e.Collection)
}

func (s *pvtStore) SchedulePurge(e storage.PurgeEntry) error {
	s.mu.Lock()
	dup := s.purges[e]
	s.mu.Unlock()
	if dup {
		return nil
	}
	if err := s.l.append(recPurgeSchedule, encodePurge(e)); err != nil {
		return err
	}
	s.mu.Lock()
	s.purges[e] = true
	s.appended++
	s.mu.Unlock()
	return nil
}

func (s *pvtStore) CompletePurge(upTo uint64) error {
	if err := s.l.append(recPurgeComplete, codec.AppendUvarint(nil, upTo)); err != nil {
		return err
	}
	s.mu.Lock()
	for e := range s.purges {
		if e.At <= upTo {
			delete(s.purges, e)
		}
	}
	s.appended++
	s.mu.Unlock()
	return s.maybeCompact()
}

func (s *pvtStore) LoadPurges(fn func(e storage.PurgeEntry) error) error {
	s.mu.Lock()
	out := make([]storage.PurgeEntry, 0, len(s.purges))
	for e := range s.purges {
		out = append(out, e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Namespace != out[j].Namespace {
			return out[i].Namespace < out[j].Namespace
		}
		return out[i].Key < out[j].Key
	})
	for _, e := range out {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

func (s *pvtStore) RecordMissing(e storage.MissingEntry) error {
	s.mu.Lock()
	dup := s.missing[e]
	s.mu.Unlock()
	if dup {
		return nil // idempotent: repeated gossip discoveries don't grow the log
	}
	if err := s.l.append(recMissing, encodeMissing(e)); err != nil {
		return err
	}
	s.mu.Lock()
	s.missing[e] = true
	s.appended++
	s.mu.Unlock()
	return nil
}

func (s *pvtStore) ResolveMissing(e storage.MissingEntry) error {
	s.mu.Lock()
	known := s.missing[e]
	s.mu.Unlock()
	if !known {
		return nil
	}
	if err := s.l.append(recMissingDone, encodeMissing(e)); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.missing, e)
	s.appended++
	s.mu.Unlock()
	return s.maybeCompact()
}

func (s *pvtStore) LoadMissing(fn func(e storage.MissingEntry) error) error {
	s.mu.Lock()
	out := make([]storage.MissingEntry, 0, len(s.missing))
	for e := range s.missing {
		out = append(out, e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TxID != out[j].TxID {
			return out[i].TxID < out[j].TxID
		}
		return out[i].Collection < out[j].Collection
	})
	for _, e := range out {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// maybeCompact rewrites the sealed prefix once enough dead records have
// accumulated. The merged segment is just the live sets re-journaled;
// entries whose schedule record sits in the active segment may be
// emitted too, which is harmless — replaying a set insert twice is a
// no-op (docs/STORAGE.md §5).
func (s *pvtStore) maybeCompact() error {
	s.mu.Lock()
	dead := s.appended - int64(len(s.purges)) - int64(len(s.missing))
	s.mu.Unlock()
	if dead < pvtCompactDeadRecords {
		return nil
	}
	if sealed, _ := s.l.sealedSnapshot(); len(sealed) == 0 {
		return nil
	}
	return s.compact()
}

func (s *pvtStore) compact() error {
	err := s.l.compact(func(_ func(fn func(recType byte, payload []byte) error) error, emit func(recType byte, payload []byte) error) error {
		s.mu.Lock()
		purges := make([]storage.PurgeEntry, 0, len(s.purges))
		for e := range s.purges {
			purges = append(purges, e)
		}
		missing := make([]storage.MissingEntry, 0, len(s.missing))
		for e := range s.missing {
			missing = append(missing, e)
		}
		s.mu.Unlock()
		sort.Slice(purges, func(i, j int) bool {
			if purges[i].At != purges[j].At {
				return purges[i].At < purges[j].At
			}
			if purges[i].Namespace != purges[j].Namespace {
				return purges[i].Namespace < purges[j].Namespace
			}
			return purges[i].Key < purges[j].Key
		})
		sort.Slice(missing, func(i, j int) bool {
			if missing[i].TxID != missing[j].TxID {
				return missing[i].TxID < missing[j].TxID
			}
			return missing[i].Collection < missing[j].Collection
		})
		for _, e := range purges {
			if err := emit(recPurgeSchedule, encodePurge(e)); err != nil {
				return err
			}
		}
		for _, e := range missing {
			if err := emit(recMissing, encodeMissing(e)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.appended = int64(len(s.purges)) + int64(len(s.missing))
	s.mu.Unlock()
	return nil
}

func (s *pvtStore) Close() error { return s.l.close() }
