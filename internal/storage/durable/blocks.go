package durable

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/storage"
)

// Record types on the blocks log (docs/STORAGE.md §6). The log is never
// compacted: every record is a block the chain still holds.
const (
	// recBlock is one block in its canonical encoding
	// (ledger.AppendBlock), the same bytes a wire block event carries.
	recBlock byte = 0x01
	// recBase is the chain base of a snapshot install: uvarint height,
	// len-prefixed hash of block height-1. Only ever the first record.
	recBase byte = 0x02
)

// blockStore is the durable BlockStore: blocks appended in order to a
// segmented log. Only the chain's position is held in memory; ReadAll
// reads the blocks back from disk.
type blockStore struct {
	l *log

	mu       sync.Mutex // serializes appends, keeping records in block order
	base     uint64
	baseHash []byte
	height   uint64
}

func openBlocks(dir string, opts storage.Options) (*blockStore, error) {
	var c chain
	l, err := openLog(dir, opts.SegmentBytes, !opts.NoFsync, func(recType byte, payload []byte) error {
		_, err := c.replay(recType, payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &blockStore{l: l, base: c.base, baseHash: c.baseHash, height: c.next}, nil
}

// chain checks the blocks log as it replays: an optional base record
// first, then blocks numbered consecutively from the base, each linked
// to its predecessor's hash (the base hash for the first) and matching
// its own data hash.
type chain struct {
	base     uint64
	baseHash []byte
	next     uint64 // number the next block must carry
	prevHash []byte
}

// replay checks one record and returns the block it holds (nil for the
// base record).
func (c *chain) replay(recType byte, payload []byte) (*ledger.Block, error) {
	switch recType {
	case recBase:
		if c.next != 0 {
			return nil, fmt.Errorf("%w: base record after block %d", storage.ErrCorrupt, c.next)
		}
		r := codec.NewReader(payload)
		c.base = r.Uvarint()
		c.baseHash = append([]byte(nil), r.Bytes()...)
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: blocks base record: %v", storage.ErrCorrupt, err)
		}
		c.next, c.prevHash = c.base, c.baseHash
		return nil, nil
	case recBlock:
		b, err := ledger.ParseBlock(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
		}
		if b.Header.Number != c.next {
			return nil, fmt.Errorf("%w: block %d where %d was due", storage.ErrCorrupt, b.Header.Number, c.next)
		}
		if c.next > 0 && !bytes.Equal(b.Header.PrevHash, c.prevHash) {
			return nil, fmt.Errorf("%w: hash chain broken at block %d", storage.ErrCorrupt, b.Header.Number)
		}
		if !b.VerifyDataHash() {
			return nil, fmt.Errorf("%w: data hash mismatch at block %d", storage.ErrCorrupt, b.Header.Number)
		}
		c.prevHash = b.Hash()
		c.next++
		return b, nil
	}
	return nil, fmt.Errorf("%w: unknown blocks record type 0x%02x", storage.ErrCorrupt, recType)
}

// Append durably appends the next block: one record, one fsync (unless
// the backend was opened with NoFsync). After a failed write every later
// Append fails until the backend is reopened (docs/STORAGE.md §0).
func (s *blockStore) Append(b *ledger.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Header.Number != s.height {
		return fmt.Errorf("%w: append block %d at height %d", storage.ErrCorrupt, b.Header.Number, s.height)
	}
	if err := s.l.append(recBlock, ledger.AppendBlock(nil, b)); err != nil {
		return err
	}
	s.height++
	return nil
}

// InstallBase makes an empty store begin at height, the first record of
// the log. Repeating it with the same parameters is a no-op, so a
// crashed install can be retried.
func (s *blockStore) InstallBase(height uint64, prevHash []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.height != s.base {
		return fmt.Errorf("durable: install base %d on non-empty block store", height)
	}
	if s.base == height && bytes.Equal(s.baseHash, prevHash) {
		return nil
	}
	if s.base != 0 {
		return fmt.Errorf("durable: block store already based at %d, cannot re-base to %d", s.base, height)
	}
	if height == 0 {
		return nil // a store begins at 0 without a base record
	}
	payload := codec.AppendBytes(codec.AppendUvarint(nil, height), prevHash)
	if err := s.l.append(recBase, payload); err != nil {
		return err
	}
	s.base, s.baseHash, s.height = height, append([]byte(nil), prevHash...), height
	return nil
}

func (s *blockStore) Base() (uint64, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base, s.baseHash
}

func (s *blockStore) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.height
}

// ReadAll reads every block back from disk, re-running the checks of
// open.
func (s *blockStore) ReadAll() ([]*ledger.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c chain
	var blocks []*ledger.Block
	err := s.l.replayAll(func(recType byte, payload []byte) error {
		b, err := c.replay(recType, payload)
		if b != nil {
			blocks = append(blocks, b)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return blocks, nil
}

func (s *blockStore) Close() error { return s.l.close() }
