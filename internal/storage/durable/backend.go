package durable

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/storage"
)

func init() {
	storage.Register("durable", func(opts storage.Options) (storage.Backend, error) {
		return Open(opts)
	})
}

// Backend is the durable storage backend of one peer: three segmented
// logs (docs/STORAGE.md §1).
//
//	<dir>/blocks/seg-*.log    block log (never compacted)
//	<dir>/state/seg-*.log     state batch log
//	<dir>/pvt/seg-*.log       private-data bookkeeping log
type Backend struct {
	dir    string
	blocks *blockStore
	state  *stateStore
	pvt    *pvtStore
}

var _ storage.Backend = (*Backend)(nil)

// Open opens (or creates) a durable backend rooted at opts.Dir, running
// crash recovery on each store: torn tails are truncated, leftover
// compaction temporaries discarded, and the in-memory indexes rebuilt
// by replay.
func Open(opts storage.Options) (*Backend, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable backend requires a directory (storage dir not configured)")
	}
	blocks, err := openBlocks(filepath.Join(opts.Dir, "blocks"), opts)
	if err != nil {
		return nil, fmt.Errorf("durable: blocks: %w", err)
	}
	state, err := openState(filepath.Join(opts.Dir, "state"), opts)
	if err != nil {
		blocks.Close()
		return nil, fmt.Errorf("durable: state: %w", err)
	}
	pvt, err := openPvt(filepath.Join(opts.Dir, "pvt"), opts)
	if err != nil {
		blocks.Close()
		state.Close()
		return nil, fmt.Errorf("durable: pvt: %w", err)
	}
	return &Backend{dir: opts.Dir, blocks: blocks, state: state, pvt: pvt}, nil
}

func (b *Backend) Name() string               { return "durable" }
func (b *Backend) Dir() string                { return b.dir }
func (b *Backend) Blocks() storage.BlockStore { return b.blocks }
func (b *Backend) State() storage.StateStore  { return b.state }
func (b *Backend) Pvt() storage.PvtStore      { return b.pvt }

// Close stops the background compactor and releases every store.
func (b *Backend) Close() error {
	var errs []error
	if err := b.state.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := b.pvt.Close(); err != nil {
		errs = append(errs, err)
	}
	if err := b.blocks.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// InjectStateFailure makes every subsequent state-batch append fail
// with err, sticky, without touching the files — the crash-recovery
// tests' stand-in for the process dying between the block and state
// durability points.
func (b *Backend) InjectStateFailure(err error) { b.state.l.failWrites(err) }

// InjectBlockFailure is the block-side analogue of InjectStateFailure.
func (b *Backend) InjectBlockFailure(err error) { b.blocks.l.failWrites(err) }
