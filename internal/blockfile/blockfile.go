// Package blockfile provides durable, append-only block storage: the
// on-disk ledger of a peer. Fabric persists its blockchain in exactly
// this style (length-prefixed records in append-only files); a peer that
// restarts rebuilds its world state by replaying the file.
//
// Record format: 4-byte big-endian length, then the JSON-serialized
// block. The file is self-describing; Open scans it once to validate
// record framing and hash linkage, truncating a torn tail left by a
// crash mid-append (docs/STORAGE.md §6).
//
// Store implements storage.BlockStore and is mounted as the block store
// of the durable backend (internal/storage/durable).
package blockfile

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/ledger"
	"repro/internal/storage"
)

// ErrCorrupt is returned when the block file fails framing or chain
// validation at a position Open is not allowed to repair. Errors carry
// both this sentinel and storage.ErrCorrupt.
var ErrCorrupt = errors.New("blockfile: corrupt block file")

// Store is an append-only block file. It implements storage.BlockStore.
type Store struct {
	path  string
	fsync bool

	mu       sync.Mutex
	f        *os.File
	syncs    uint64 // fsyncs issued by Append
	height   uint64
	size     int64 // offset of the end of the last intact record
	writeErr error // sticky: the store is broken after a failed append
	closed   bool
}

var _ storage.BlockStore = (*Store)(nil)

// Open opens (or creates) the block file under dir and validates its
// contents. An incomplete record at the end of the file — the signature
// of a crash mid-append — is truncated away; corruption anywhere else
// (bad JSON, broken hash chain, out-of-order numbers) fails with
// ErrCorrupt. With fsync unset, Append leaves flushing to the OS: the
// file survives a process crash but not a power loss
// (storage.Options.NoFsync).
func Open(dir string, fsync bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: blockfile: mkdir: %v", storage.ErrIO, err)
	}
	path := filepath.Join(dir, "blocks.bin")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: blockfile: open: %v", storage.ErrIO, err)
	}
	s := &Store{path: path, fsync: fsync, f: f}
	blocks, size, err := s.scan(true)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.height = uint64(len(blocks))
	s.size = size
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: blockfile: seek: %v", storage.ErrIO, err)
	}
	return s, nil
}

// Close releases the underlying file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("%w: blockfile: close: %v", storage.ErrIO, err)
	}
	return nil
}

// Height returns the number of stored blocks.
func (s *Store) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.height
}

// Append durably appends a block: the call returns only after the
// record is written and (unless the store was opened without fsync)
// fsynced. Blocks must arrive in order. On a write or sync failure the
// partial record is rolled back (truncated) and the store goes
// sticky-broken: every later Append fails until the file is reopened,
// which re-runs validation.
func (s *Store) Append(b *ledger.Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return storage.ErrClosed
	}
	if s.writeErr != nil {
		return s.writeErr
	}
	if b.Header.Number != s.height {
		return fmt.Errorf("%w: %w: append block %d at height %d", storage.ErrCorrupt, ErrCorrupt, b.Header.Number, s.height)
	}
	raw, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("blockfile: marshal block %d: %w", b.Header.Number, err)
	}
	buf := make([]byte, 4+len(raw))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(raw)))
	copy(buf[4:], raw)
	if _, err := s.f.Write(buf); err != nil {
		s.fail(fmt.Errorf("%w: blockfile: write block %d: %v", storage.ErrIO, b.Header.Number, err))
		return s.writeErr
	}
	if s.fsync {
		s.syncs++
		if err := s.f.Sync(); err != nil {
			s.fail(fmt.Errorf("%w: blockfile: sync block %d: %v", storage.ErrIO, b.Header.Number, err))
			return s.writeErr
		}
	}
	s.size += int64(len(buf))
	s.height++
	return nil
}

// Syncs returns how many fsyncs Append has issued.
func (s *Store) Syncs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// fail rolls the file back to the last intact record and records the
// sticky error. Caller holds s.mu.
func (s *Store) fail(err error) {
	// Best effort: if the truncate itself fails, reopen-time torn-tail
	// repair covers the partial record.
	_ = s.f.Truncate(s.size)
	_, _ = s.f.Seek(s.size, io.SeekStart)
	s.writeErr = err
}

// FailWrites injects a sticky write failure: every subsequent Append
// fails with err without touching the file. Crash-recovery tests use it
// to model a peer dying at the block-durability point.
func (s *Store) FailWrites(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeErr = err
}

// ReadAll returns every stored block in order, validating framing and
// hash linkage.
func (s *Store) ReadAll() ([]*ledger.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, storage.ErrClosed
	}
	blocks, _, err := s.scan(false)
	if seekErr := s.reposition(); err == nil {
		err = seekErr
	}
	return blocks, err
}

func (s *Store) reposition() error {
	if _, err := s.f.Seek(s.size, io.SeekStart); err != nil {
		return fmt.Errorf("%w: blockfile: seek: %v", storage.ErrIO, err)
	}
	return nil
}

// scan reads the file from the start. With repair set (Open), a short
// record at the end of the file is treated as a torn tail and truncated;
// without it (ReadAll on a live store) any framing failure is an error.
func (s *Store) scan(repair bool) ([]*ledger.Block, int64, error) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("%w: blockfile: seek: %v", storage.ErrIO, err)
	}
	var blocks []*ledger.Block
	var prevHash []byte
	var offset int64
	for {
		var lenBuf [4]byte
		_, err := io.ReadFull(s.f, lenBuf[:])
		if err == io.EOF {
			break
		}
		torn := ""
		var raw []byte
		if err != nil {
			torn = "truncated frame"
		} else {
			raw = make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
			if _, err := io.ReadFull(s.f, raw); err != nil {
				torn = "truncated block"
			}
		}
		if torn != "" {
			if !repair {
				return nil, 0, fmt.Errorf("%w: %w: %s at offset %d", storage.ErrCorrupt, ErrCorrupt, torn, offset)
			}
			if err := s.f.Truncate(offset); err != nil {
				return nil, 0, fmt.Errorf("%w: blockfile: truncate torn tail: %v", storage.ErrIO, err)
			}
			break
		}
		var b ledger.Block
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, 0, fmt.Errorf("%w: %w: unmarshal: %v", storage.ErrCorrupt, ErrCorrupt, err)
		}
		if b.Header.Number != uint64(len(blocks)) {
			return nil, 0, fmt.Errorf("%w: %w: block %d at position %d", storage.ErrCorrupt, ErrCorrupt, b.Header.Number, len(blocks))
		}
		if len(blocks) > 0 && string(b.Header.PrevHash) != string(prevHash) {
			return nil, 0, fmt.Errorf("%w: %w: hash chain broken at block %d", storage.ErrCorrupt, ErrCorrupt, b.Header.Number)
		}
		if !b.VerifyDataHash() {
			return nil, 0, fmt.Errorf("%w: %w: data hash mismatch at block %d", storage.ErrCorrupt, ErrCorrupt, b.Header.Number)
		}
		prevHash = b.Hash()
		blocks = append(blocks, &b)
		offset += 4 + int64(len(raw))
	}
	return blocks, offset, nil
}
