// Package storage defines the durable storage contracts of a peer — the
// BlockStore, StateStore and PvtStore interfaces — and the backend
// factory that selects an implementation by name.
//
// Three backends register by default:
//
//   - "memory"  — everything held in RAM; the same Load/Apply/Restore
//     code paths as the durable backend, nothing on disk. The test
//     default for restart-shaped tests that should not touch the
//     filesystem.
//   - "durable" — append-only segment files of records in the one disk
//     frame (record.go), group-commit fsync, crash-recovery replay on
//     open and background compaction (internal/storage/durable; spec in
//     docs/STORAGE.md).
//   - "null"    — discards every write; Load replays nothing. Used to
//     measure the cost of the persistence hooks themselves.
//
// An empty backend name in the peer configuration means "no persistence
// layer at all": the peer keeps its world state and chain purely in the
// in-memory structures, exactly as before this package existed.
//
// The contract every implementation must honour, and the on-disk format
// of the durable one, are specified in docs/STORAGE.md. The recovery
// model in one sentence: blocks are made durable before the state
// mutations they caused, so on open the state log's watermark W never
// exceeds the chain height H, and the peer replays blocks [W, H)
// through its validator to catch the state up.
package storage

import (
	"errors"

	"repro/internal/ledger"
)

// Typed storage errors. Implementations wrap these so callers can
// classify failures with errors.Is regardless of backend.
var (
	// ErrCorrupt marks data that failed framing, checksum or chain
	// validation at a position recovery is not allowed to repair (i.e.
	// not a torn tail).
	ErrCorrupt = errors.New("storage: corrupt record")
	// ErrIO marks a failed write, fsync, rename or other filesystem
	// operation. A store that returns ErrIO is broken: the failed data
	// may be partially on disk, and every subsequent append fails until
	// the store is reopened (which re-runs recovery).
	ErrIO = errors.New("storage: io failure")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("storage: store closed")
	// ErrUnknownBackend is returned by Open for an unregistered name.
	ErrUnknownBackend = errors.New("storage: unknown backend")
)

// StateRecord is one durable world-state mutation: a versioned put, or a
// deletion whose Version preserves the tombstone (the last live version
// of the deleted key, so re-creations continue the version sequence
// after a restart — see docs/STATEDB.md).
type StateRecord struct {
	Namespace string
	Key       string
	Value     []byte
	Version   uint64
	Delete    bool
}

// StateBatch is the atomic unit of state durability: every mutation of
// one block commit (Height = block number + 1) or of one reconciliation
// flush (Height = chain height at the flush). A batch is either fully
// durable or, after a crash, entirely absent — implementations must not
// surface partial batches from Load.
type StateBatch struct {
	// Height is the chain height the state reflects once this batch is
	// applied: the batch of block h carries Height h+1.
	Height  uint64
	Records []StateRecord
}

// StateStore persists world-state mutations. It is a write-behind log
// under the in-memory statedb (docs/STATEDB.md): the sharded DB remains
// the read path; the store only absorbs committed batches and replays
// them on open.
type StateStore interface {
	// Apply makes the batch durable. It returns only after the batch
	// survives a crash (for the durable backend: written, CRC-framed and
	// fsynced, possibly sharing one group-commit fsync with concurrent
	// callers).
	Apply(batch StateBatch) error
	// Load replays every durable batch in commit order. Called once,
	// before Apply, on a freshly opened store.
	Load(fn func(batch StateBatch) error) error
	// Watermark is the recovery watermark: the largest Height of any
	// durable batch, i.e. the number of blocks whose state mutations are
	// fully durable. 0 on an empty store.
	Watermark() uint64
	// Compact rewrites sealed segments keeping only the latest record
	// per key (superseded puts and superseded tombstones are reclaimed;
	// the newest tombstone of a dead key is kept for version
	// continuity). No-op on backends with nothing to compact.
	Compact() error
	Close() error
}

// BlockStore persists the blockchain; the in-memory chain
// (ledger.BlockStore) remains the peer's runtime read path.
type BlockStore interface {
	// Append durably adds the next block (blocks arrive in order).
	Append(b *ledger.Block) error
	// Height is the number of the next block to append: the base plus
	// the number of durable blocks.
	Height() uint64
	// ReadAll returns every stored block in order, validating framing
	// and hash linkage.
	ReadAll() ([]*ledger.Block, error)
	// InstallBase tells an empty store it begins at height (prevHash =
	// hash of block height-1) instead of 0, so a snapshot-bootstrapped
	// peer's durable chain holds only blocks from the install point.
	// Repeating it with the same parameters is a no-op, so a crashed
	// install can be retried.
	InstallBase(height uint64, prevHash []byte) error
	// Base returns the first block number the store holds and the hash
	// of its predecessor (0, nil for a genesis store).
	Base() (uint64, []byte)
	Close() error
}

// PurgeEntry is one scheduled BlockToLive purge: the private entry
// (Namespace, Key) is deleted when the chain reaches height At.
type PurgeEntry struct {
	At        uint64
	Namespace string
	Key       string
}

// MissingEntry identifies private data of one (transaction, collection)
// the peer is a member of but never obtained — the reconciler's unit of
// work.
type MissingEntry struct {
	TxID       string
	Collection string
}

// PvtStore persists the private-data lifecycle bookkeeping that is not
// derivable from the chain alone: the BlockToLive purge queue and the
// missing-private-data records driving reconciliation. The private
// values themselves flow through the StateStore (they live in statedb
// namespaces).
type PvtStore interface {
	// SchedulePurge durably records a pending purge.
	SchedulePurge(e PurgeEntry) error
	// CompletePurge durably records that every purge with At <= upTo has
	// been executed.
	CompletePurge(upTo uint64) error
	// LoadPurges replays the still-pending purge entries.
	LoadPurges(fn func(e PurgeEntry) error) error
	// RecordMissing durably records a missing-private-data entry.
	// Recording the same entry twice is a no-op.
	RecordMissing(e MissingEntry) error
	// ResolveMissing durably clears a previously recorded entry.
	ResolveMissing(e MissingEntry) error
	// LoadMissing replays the still-unresolved missing entries.
	LoadMissing(fn func(e MissingEntry) error) error
	Close() error
}

// Backend bundles the three stores of one peer. Implementations are
// constructed by the factory (Open) and own any shared resources
// (directories, background compactors).
type Backend interface {
	// Name is the registered backend name ("memory", "durable", ...).
	Name() string
	Blocks() BlockStore
	State() StateStore
	Pvt() PvtStore
	// Close releases every store and stops background work. Safe to call
	// twice.
	Close() error
}
