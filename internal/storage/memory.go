package storage

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ledger"
)

// NewMemory returns the in-RAM backend: real stores with the same
// Apply/Load/Watermark semantics as the durable backend, holding
// everything in memory. It makes restart-shaped tests (close a peer,
// hand its backend to a new peer object, Restore) run without touching
// the filesystem, exercising the same recovery code path the durable
// backend uses.
//
// The state store keeps only the latest record per key (it is its own
// permanently-compacted form), so its footprint is O(state size), not
// O(write history).
func NewMemory() Backend {
	return &memBackend{
		blocks: &memBlockStore{},
		state: &memStateStore{
			latest: make(map[string]StateRecord),
		},
		pvt: &memPvtStore{
			purges:  make(map[PurgeEntry]bool),
			missing: make(map[MissingEntry]bool),
		},
	}
}

type memBackend struct {
	blocks *memBlockStore
	state  *memStateStore
	pvt    *memPvtStore
}

func (b *memBackend) Name() string       { return "memory" }
func (b *memBackend) Blocks() BlockStore { return b.blocks }
func (b *memBackend) State() StateStore  { return b.state }
func (b *memBackend) Pvt() PvtStore      { return b.pvt }
func (b *memBackend) Close() error       { return nil }

type memBlockStore struct {
	mu       sync.Mutex
	base     uint64
	baseHash []byte
	blocks   []*ledger.Block
}

func (s *memBlockStore) Append(b *ledger.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := s.base + uint64(len(s.blocks))
	if b.Header.Number != want {
		return errOutOfOrder(b.Header.Number, want)
	}
	s.blocks = append(s.blocks, b)
	return nil
}

func (s *memBlockStore) InstallBase(height uint64, prevHash []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.blocks) != 0 {
		return fmt.Errorf("storage: install base %d on non-empty block store", height)
	}
	if s.base != 0 && s.base != height {
		return fmt.Errorf("storage: block store already based at %d, cannot re-base to %d", s.base, height)
	}
	s.base = height
	s.baseHash = append([]byte(nil), prevHash...)
	return nil
}

func (s *memBlockStore) Base() (uint64, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base, s.baseHash
}

func (s *memBlockStore) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base + uint64(len(s.blocks))
}

func (s *memBlockStore) ReadAll() ([]*ledger.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*ledger.Block(nil), s.blocks...), nil
}

func (s *memBlockStore) Close() error { return nil }

type memStateStore struct {
	mu        sync.Mutex
	latest    map[string]StateRecord // ns\x00key -> latest record
	watermark uint64
}

func stateKey(ns, key string) string { return ns + "\x00" + key }

func (s *memStateStore) Apply(batch StateBatch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range batch.Records {
		s.latest[stateKey(r.Namespace, r.Key)] = r
	}
	if batch.Height > s.watermark {
		s.watermark = batch.Height
	}
	return nil
}

// Load replays the retained state as one batch at the watermark, in
// sorted (namespace, key) order so recovery is deterministic.
func (s *memStateStore) Load(fn func(batch StateBatch) error) error {
	s.mu.Lock()
	keys := make([]string, 0, len(s.latest))
	for k := range s.latest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	batch := StateBatch{Height: s.watermark, Records: make([]StateRecord, 0, len(keys))}
	for _, k := range keys {
		batch.Records = append(batch.Records, s.latest[k])
	}
	s.mu.Unlock()
	if len(batch.Records) == 0 && batch.Height == 0 {
		return nil
	}
	return fn(batch)
}

func (s *memStateStore) Watermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

func (s *memStateStore) Compact() error { return nil }
func (s *memStateStore) Close() error   { return nil }

type memPvtStore struct {
	mu      sync.Mutex
	purges  map[PurgeEntry]bool
	missing map[MissingEntry]bool
}

func (s *memPvtStore) SchedulePurge(e PurgeEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.purges[e] = true
	return nil
}

func (s *memPvtStore) CompletePurge(upTo uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for e := range s.purges {
		if e.At <= upTo {
			delete(s.purges, e)
		}
	}
	return nil
}

func (s *memPvtStore) LoadPurges(fn func(e PurgeEntry) error) error {
	for _, e := range s.sortedPurges() {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

func (s *memPvtStore) sortedPurges() []PurgeEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PurgeEntry, 0, len(s.purges))
	for e := range s.purges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Namespace != out[j].Namespace {
			return out[i].Namespace < out[j].Namespace
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (s *memPvtStore) RecordMissing(e MissingEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.missing[e] = true
	return nil
}

func (s *memPvtStore) ResolveMissing(e MissingEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.missing, e)
	return nil
}

func (s *memPvtStore) LoadMissing(fn func(e MissingEntry) error) error {
	s.mu.Lock()
	out := make([]MissingEntry, 0, len(s.missing))
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

func (s *memPvtStore) Close() error { return nil }
