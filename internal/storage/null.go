package storage

import (
	"fmt"

	"repro/internal/ledger"
)

func errOutOfOrder(got, want uint64) error {
	return fmt.Errorf("%w: append block %d, want %d", ErrCorrupt, got, want)
}

// NewNull returns the discarding backend: every append succeeds and is
// dropped, Load replays nothing. It measures the cost of the peer's
// persistence hooks (journaling, batch assembly) without any retention,
// and serves as the backend for peers whose durability is explicitly
// unwanted (e.g. short-lived attack-harness peers).
func NewNull() Backend { return nullBackend{} }

type nullBackend struct{}

func (nullBackend) Name() string       { return "null" }
func (nullBackend) Blocks() BlockStore { return nullBlocks{} }
func (nullBackend) State() StateStore  { return nullState{} }
func (nullBackend) Pvt() PvtStore      { return nullPvt{} }
func (nullBackend) Close() error       { return nil }

type nullBlocks struct{}

func (nullBlocks) Append(*ledger.Block) error        { return nil }
func (nullBlocks) Height() uint64                    { return 0 }
func (nullBlocks) ReadAll() ([]*ledger.Block, error) { return nil, nil }
func (nullBlocks) InstallBase(uint64, []byte) error  { return nil }
func (nullBlocks) Base() (uint64, []byte)            { return 0, nil }
func (nullBlocks) Close() error                      { return nil }

type nullState struct{}

func (nullState) Apply(StateBatch) error            { return nil }
func (nullState) Load(func(StateBatch) error) error { return nil }
func (nullState) Watermark() uint64                 { return 0 }
func (nullState) Compact() error                    { return nil }
func (nullState) Close() error                      { return nil }

type nullPvt struct{}

func (nullPvt) SchedulePurge(PurgeEntry) error             { return nil }
func (nullPvt) CompletePurge(uint64) error                 { return nil }
func (nullPvt) LoadPurges(func(PurgeEntry) error) error    { return nil }
func (nullPvt) RecordMissing(MissingEntry) error           { return nil }
func (nullPvt) ResolveMissing(MissingEntry) error          { return nil }
func (nullPvt) LoadMissing(func(MissingEntry) error) error { return nil }
func (nullPvt) Close() error                               { return nil }
