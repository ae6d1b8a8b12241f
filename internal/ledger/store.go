package ledger

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fabcrypto"
)

// ErrNotFound is returned when a block or transaction is absent from the
// store.
var ErrNotFound = errors.New("ledger: not found")

// ErrForked reports a block that belongs to a different chain than the
// one a peer holds: numbered below its height, or at its height with a
// PrevHash other than its last block's hash.
var ErrForked = errors.New("ledger: block from a forked chain")

// BlockStore is a peer's copy of the blockchain. Blocks are appended in
// order after validation; every append verifies the hash chain.
//
// A store normally starts at block 0, but a snapshot-bootstrapped peer
// installs a base: the store then holds blocks [base, height) and the
// first append at `base` is linked against the snapshot's recorded
// last-block hash instead of a locally held predecessor.
type BlockStore struct {
	mu       sync.RWMutex
	base     uint64
	baseHash []byte // hash of block base-1; nil when base == 0
	blocks   []*Block
	byTxID   map[string]txLocator
}

type txLocator struct {
	blockNum uint64
	txIndex  int
}

// NewBlockStore creates an empty blockchain.
func NewBlockStore() *BlockStore {
	return &BlockStore{byTxID: make(map[string]txLocator)}
}

// InstallBase marks an empty store as starting at the given height, with
// prevHash the hash of block height-1. Subsequent appends must start at
// `height` and link against prevHash. This is the snapshot-install
// primitive: the installing peer never held blocks [0, height).
func (s *BlockStore) InstallBase(height uint64, prevHash []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.base != 0 || len(s.blocks) != 0 {
		return fmt.Errorf("ledger: install base %d on non-empty store", height)
	}
	if height > 0 && len(prevHash) == 0 {
		return fmt.Errorf("ledger: install base %d without predecessor hash", height)
	}
	s.base = height
	if height > 0 {
		s.baseHash = append([]byte(nil), prevHash...)
	}
	return nil
}

// Base returns the first block number the store holds (non-zero only for
// snapshot-bootstrapped peers).
func (s *BlockStore) Base() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}

// Append adds a validated block to the chain after verifying linkage.
func (s *BlockStore) Append(b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := s.base + uint64(len(s.blocks))
	if b.Header.Number != want {
		return fmt.Errorf("ledger: append block %d, want %d", b.Header.Number, want)
	}
	var prev []byte
	if len(s.blocks) > 0 {
		prev = s.blocks[len(s.blocks)-1].Hash()
	} else {
		prev = s.baseHash
	}
	if prev != nil {
		if !fabcrypto.Equal(b.Header.PrevHash, prev) {
			return fmt.Errorf("ledger: block %d prev-hash mismatch", b.Header.Number)
		}
	}
	if !b.VerifyDataHash() {
		return fmt.Errorf("ledger: block %d data-hash mismatch", b.Header.Number)
	}
	s.blocks = append(s.blocks, b)
	for i, tx := range b.Transactions {
		s.byTxID[tx.TxID] = txLocator{blockNum: b.Header.Number, txIndex: i}
	}
	return nil
}

// Height returns the chain height (number of the next block to append).
func (s *BlockStore) Height() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base + uint64(len(s.blocks))
}

// LastHash returns the hash of the last block, or nil for an empty chain.
// For a freshly installed base with no appends yet, this is the
// snapshot's recorded hash of block base-1, so the first caught-up block
// links correctly.
func (s *BlockStore) LastHash() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.blocks) == 0 {
		return s.baseHash
	}
	return s.blocks[len(s.blocks)-1].Hash()
}

// Block returns the block at the given number. Blocks below the base of
// a snapshot-bootstrapped store were never transferred and report
// ErrNotFound.
func (s *BlockStore) Block(number uint64) (*Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if number < s.base || number >= s.base+uint64(len(s.blocks)) {
		return nil, fmt.Errorf("%w: block %d", ErrNotFound, number)
	}
	return s.blocks[number-s.base], nil
}

// Transaction looks up a transaction and its validation flag by ID.
// Pre-base transactions of a snapshot-bootstrapped peer are not locally
// resolvable (their effects are in the state, not the block log).
func (s *BlockStore) Transaction(txID string) (*Transaction, ValidationCode, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.byTxID[txID]
	if !ok {
		return nil, 0, fmt.Errorf("%w: tx %s", ErrNotFound, txID)
	}
	b := s.blocks[loc.blockNum-s.base]
	return b.Transactions[loc.txIndex], b.Metadata.ValidationFlags[loc.txIndex], nil
}

// Scan calls fn for every transaction in chain order, with its block
// number and validation flag. fn returning false stops the scan. This is
// the primitive the paper's PDC-leakage attack uses: any peer can walk its
// local blockchain and parse transaction payloads (§IV-B).
func (s *BlockStore) Scan(fn func(blockNum uint64, tx *Transaction, code ValidationCode) bool) {
	s.mu.RLock()
	blocks := s.blocks
	s.mu.RUnlock()
	for _, b := range blocks {
		for i, tx := range b.Transactions {
			if !fn(b.Header.Number, tx, b.Metadata.ValidationFlags[i]) {
				return
			}
		}
	}
}

// VerifyChain re-checks hash linkage and data hashes across the whole
// chain, returning the first broken block number or -1 when intact.
func (s *BlockStore) VerifyChain() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	prev := s.baseHash
	for i, b := range s.blocks {
		n := s.base + uint64(i)
		if b.Header.Number != n {
			return int64(n)
		}
		if prev != nil && !fabcrypto.Equal(b.Header.PrevHash, prev) {
			return int64(n)
		}
		if !b.VerifyDataHash() {
			return int64(n)
		}
		prev = b.Hash()
	}
	return -1
}
