// Package peer assembles a Fabric peer node: world state, private data
// stores, blockchain, chaincode registry, endorsement engine and
// validation engine, plus the gossip surface for private data
// dissemination.
package peer

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/chaincode"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/deliver"
	"repro/internal/endorser"
	"repro/internal/fabcrypto"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/pvtdata"
	"repro/internal/reconcile"
	"repro/internal/rwset"
	"repro/internal/statedb"
	"repro/internal/storage"
	"repro/internal/validator"

	// Register the durable backend so SecurityConfig.StorageBackend can
	// name it.
	_ "repro/internal/storage/durable"
)

// Peer is one peer node.
type Peer struct {
	id         *identity.Identity
	channelCfg *channel.Config
	db         *statedb.DB
	pvt        *pvtdata.Store
	transient  *pvtdata.TransientStore
	blocks     *ledger.BlockStore
	registry   *chaincode.Registry
	endorser   *endorser.Endorser
	validator  *validator.Validator
	reconciler *reconcile.Reconciler
	delivery   *deliver.Service
	metrics    metrics.Counters
	timings    metrics.Timings

	// metricsMu guards metricsSources: external counter providers
	// (e.g. the wire transport) merged into Metrics snapshots.
	metricsMu      sync.Mutex
	metricsSources []func() map[string]uint64

	// backend, when non-nil, is the peer's storage backend: blocks,
	// state batches and private-data bookkeeping become durable in the
	// order documented in docs/STORAGE.md §7. storageMu serializes the
	// journal drain/flush step; storageErr holds a flush failure from a
	// background path (reconciler tick) until the commit path can
	// surface it.
	backend    storage.Backend
	storageMu  sync.Mutex
	storageErr error

	mu   sync.RWMutex
	defs map[string]*chaincode.Definition

	// commitListeners receive (blockNum, txID, code) after each
	// transaction commit attempt; clients subscribe for notifications.
	listenerMu      sync.RWMutex
	commitListeners []CommitListener
	eventListeners  []EventListener
}

// CommitListener observes transaction validation outcomes at this peer.
type CommitListener func(blockNum uint64, txID string, code ledger.ValidationCode)

// EventListener observes chaincode events of valid transactions.
type EventListener func(blockNum uint64, txID string, event *ledger.ChaincodeEvent)

// Config wires a peer.
type Config struct {
	// Identity is the peer's enrollment identity.
	Identity *identity.Identity
	// Channel is the channel configuration.
	Channel *channel.Config
	// Gossip is the channel's gossip network.
	Gossip *gossip.Network
	// Security selects the active defense features.
	Security core.SecurityConfig
	// Backend, when non-nil, is used as the peer's storage backend
	// directly instead of opening one from Security.StorageBackend —
	// dependency injection for restart-shaped tests (hand a memory
	// backend to a second peer object to simulate a reboot without
	// touching disk).
	Backend storage.Backend
}

// New creates a peer and joins it to the gossip network. When
// cfg.Backend or cfg.Security.StorageBackend selects a storage backend,
// the peer's commits become durable; a backend with existing data needs
// Restore called (after approving definitions) before the first commit.
func New(cfg Config) (*Peer, error) {
	db := statedb.New()
	p := &Peer{
		id:         cfg.Identity,
		channelCfg: cfg.Channel,
		db:         db,
		pvt:        pvtdata.NewStore(db),
		transient:  pvtdata.NewTransientStore(),
		blocks:     ledger.NewBlockStore(),
		registry:   chaincode.NewRegistry(),
		defs:       make(map[string]*chaincode.Definition),
	}
	db.SetObserver(&p.timings)

	p.backend = cfg.Backend
	if p.backend == nil && cfg.Security.StorageBackend != "" {
		var dir string
		if cfg.Security.StorageDir != "" {
			dir = filepath.Join(cfg.Security.StorageDir, cfg.Identity.Subject())
		}
		backend, err := storage.Open(cfg.Security.StorageBackend, storage.Options{
			Dir:          dir,
			SegmentBytes: cfg.Security.StorageSegmentBytes,
			NoFsync:      cfg.Security.StorageNoFsync,
		})
		if err != nil {
			return nil, fmt.Errorf("peer %s: %w", cfg.Identity.Subject(), err)
		}
		p.backend = backend
	}
	if p.backend != nil {
		p.pvt.SetDurable(p.backend.Pvt())
		// Capture every state mutation from here on; Restore installs
		// already-durable batches through the journal-bypassing
		// RestoreBatch, so nothing is double-flushed.
		db.EnableJournal()
	}
	// One verification cache per peer: the endorser's creator checks and
	// the validator's endorsement checks hit the same certificates.
	certs := identity.NewVerifyCache(cfg.Channel.Verifier(), cfg.Security.VerifyCacheSize, &p.metrics)
	p.endorser = endorser.New(endorser.Config{
		Identity:  cfg.Identity,
		Certs:     certs,
		Registry:  p.registry,
		Defs:      p.Definition,
		DB:        db,
		Pvt:       p.pvt,
		Transient: p.transient,
		Gossip:    cfg.Gossip,
		Security:  cfg.Security,
	})
	var durablePvt storage.PvtStore
	if p.backend != nil {
		durablePvt = p.backend.Pvt()
	}
	p.validator = validator.New(validator.Config{
		SelfName:  cfg.Identity.Subject(),
		SelfOrg:   cfg.Identity.MSPID(),
		Channel:   cfg.Channel,
		Certs:     certs,
		Defs:      p.Definition,
		DB:        db,
		Pvt:       p.pvt,
		Transient: p.transient,
		Gossip:    cfg.Gossip,
		Blocks:    p.blocks,
		Security:  cfg.Security,
		Timings:   &p.timings,
		Durable:   durablePvt,
	})
	p.transient.SetHeightSource(p.blocks.Height)
	p.transient.SetLimits(cfg.Security.TransientTTLBlocks, cfg.Security.TransientMaxEntries)
	p.reconciler = reconcile.New(reconcile.Config{
		Fetch: func() []reconcile.Entry {
			missing := p.validator.Missing()
			out := make([]reconcile.Entry, len(missing))
			for i, m := range missing {
				out[i] = reconcile.Entry{TxID: m.TxID, Collection: m.Collection}
			}
			return out
		},
		Attempt: func(e reconcile.Entry) bool {
			return p.validator.ReconcileOne(e.TxID, e.Collection)
		},
		MaxAttempts: cfg.Security.ReconcileMaxAttempts,
		BaseBackoff: cfg.Security.ReconcileBaseBackoff,
		MaxBackoff:  cfg.Security.ReconcileMaxBackoff,
		Metrics:     &p.metrics,
		Timings:     &p.timings,
	})
	p.delivery = deliver.New(deliver.Config{
		Source:     p.blocks,
		Missing:    p.MissingPrivateData,
		BufferSize: cfg.Security.DeliverBufferSize,
		Metrics:    &p.metrics,
		Timings:    &p.timings,
	})
	cfg.Gossip.Join(p)
	return p, nil
}

// Restore rebuilds the peer's in-memory state from its storage backend.
// Chaincode definitions must be approved before calling Restore (replay
// resolves collection configs through them).
//
// Backend recovery (docs/STORAGE.md §7): blocks [0, W) — where W is the
// state log's watermark — are installed directly (chain only; their
// state mutations load from the state store), and blocks [W, H) replay
// through the validator, which re-journals and re-flushes their
// mutations. Because blocks become durable before their state batch,
// W <= H always holds on an uncorrupted store.
func (p *Peer) Restore() error {
	if p.backend == nil {
		return fmt.Errorf("peer %s: not persistent", p.Name())
	}
	fail := func(err error) error { return fmt.Errorf("peer %s: restore: %w", p.Name(), err) }
	blocks, err := p.backend.Blocks().ReadAll()
	if err != nil {
		return fail(err)
	}
	// A snapshot-installed backend starts its chain at a base height; the
	// in-memory chain must adopt it before any block installs.
	base, baseHash := p.backend.Blocks().Base()
	height := base + uint64(len(blocks))
	watermark := p.backend.State().Watermark()
	if watermark > height {
		return fail(fmt.Errorf("%w: state watermark %d exceeds chain height %d",
			storage.ErrCorrupt, watermark, height))
	}
	if watermark < base {
		// The base was installed but the snapshot's state batch never
		// became durable: a crash mid-install. Blocks [base, watermark)
		// cannot be replayed (the peer never had them), so recovery is
		// impossible — wipe the backend and re-install the snapshot.
		return fail(fmt.Errorf("%w: snapshot install incomplete (chain based at %d, state watermark %d); re-install from the snapshot artifact",
			storage.ErrCorrupt, base, watermark))
	}
	if base > 0 {
		if err := p.blocks.InstallBase(base, baseHash); err != nil {
			return fail(err)
		}
	}
	// 1. Install the durable state as of watermark W, bypassing the
	// journal (these batches are durable already).
	err = p.backend.State().Load(func(batch storage.StateBatch) error {
		entries := make([]statedb.JournalEntry, len(batch.Records))
		for i, r := range batch.Records {
			entries[i] = statedb.JournalEntry{
				Namespace: r.Namespace,
				Key:       r.Key,
				Value:     r.Value,
				Version:   statedb.Version(r.Version),
				Delete:    r.Delete,
			}
		}
		p.db.RestoreBatch(entries)
		return nil
	})
	if err != nil {
		return fail(err)
	}
	// 2. Reload the private-data bookkeeping before replay, which
	// re-records (deduped) whatever the replayed blocks still miss.
	if err := p.pvt.RestorePurges(); err != nil {
		return fail(err)
	}
	if err := p.validator.RestoreMissing(); err != nil {
		return fail(err)
	}
	// 3. Blocks below the watermark carry no un-flushed state: chain
	// installation only. (Indexing is relative to the base: block base+i
	// sits at blocks[i].)
	for _, b := range blocks[:watermark-base] {
		if err := p.blocks.Append(b); err != nil {
			return fail(err)
		}
	}
	// 4. Blocks at or above the watermark replay through the validator:
	// their mutations re-journal and re-flush, closing the gap a crash
	// between the block append and the state flush left behind.
	for _, b := range blocks[watermark-base:] {
		if err := p.validator.ReplayBlock(b); err != nil {
			return fail(err)
		}
		if err := p.flushState(b.Header.Number + 1); err != nil {
			return fail(err)
		}
	}
	return nil
}

// flushState drains the statedb journal and applies it to the state
// store as the atomic batch of chain height h. Flushed even when empty:
// the watermark must advance past state-less blocks. Surfaces any
// sticky durable error from the private-data bookkeeping first — a
// block whose side records were lost must not be declared durable.
func (p *Peer) flushState(h uint64) error {
	p.storageMu.Lock()
	defer p.storageMu.Unlock()
	if p.storageErr != nil {
		return p.storageErr
	}
	if err := p.pvt.DurableErr(); err != nil {
		return err
	}
	if err := p.validator.DurableErr(); err != nil {
		return err
	}
	entries := p.db.DrainJournal()
	batch := storage.StateBatch{Height: h, Records: make([]storage.StateRecord, len(entries))}
	for i, e := range entries {
		batch.Records[i] = storage.StateRecord{
			Namespace: e.Namespace,
			Key:       e.Key,
			Value:     e.Value,
			Version:   uint64(e.Version),
			Delete:    e.Delete,
		}
	}
	return p.backend.State().Apply(batch)
}

// Backend exposes the peer's storage backend (nil when the peer runs
// without persistence).
func (p *Peer) Backend() storage.Backend { return p.backend }

// Close releases the peer's storage backend (stopping background
// compaction), when present.
func (p *Peer) Close() error {
	if p.backend == nil {
		return nil
	}
	return p.backend.Close()
}

// Name returns the peer's node name, e.g. "peer0.org1".
func (p *Peer) Name() string { return p.id.Subject() }

// Org returns the peer's organization.
func (p *Peer) Org() string { return p.id.MSPID() }

// ChannelName returns the name of the channel this peer serves.
func (p *Peer) ChannelName() string { return p.channelCfg.Name }

// Deliver exposes the peer's delivery service: block and per-transaction
// commit-status event streams with checkpointed replay. Subscribers that
// resume after a restart (Restore) replay the persisted backlog from the
// block store before going live.
func (p *Peer) Deliver() *deliver.Service { return p.delivery }

// SetSecurity swaps the active security configuration on both engines,
// the reconciler's retry policy and the transient store's lifecycle
// bounds.
func (p *Peer) SetSecurity(sec core.SecurityConfig) {
	p.endorser.SetSecurity(sec)
	p.validator.SetSecurity(sec)
	p.reconciler.SetPolicy(sec.ReconcileMaxAttempts, sec.ReconcileBaseBackoff, sec.ReconcileMaxBackoff)
	p.transient.SetLimits(sec.TransientTTLBlocks, sec.TransientMaxEntries)
}

// ApproveDefinition records the channel-agreed chaincode definition
// (name, policy, collections). All peers of a channel must approve the
// same definition, mirroring Fabric's chaincode lifecycle.
func (p *Peer) ApproveDefinition(def *chaincode.Definition) error {
	for i := range def.Collections {
		if err := def.Collections[i].Validate(); err != nil {
			return fmt.Errorf("peer %s: approve %q: %w", p.Name(), def.Name, err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.defs[def.Name] = def
	return nil
}

// InstallChaincode installs this peer's implementation of a chaincode.
// Different peers may install different implementations of the same
// definition — Fabric's customizable chaincode.
func (p *Peer) InstallChaincode(name string, cc chaincode.Chaincode) {
	p.registry.Install(name, cc)
}

// Definition returns the approved definition of a chaincode, or nil.
func (p *Peer) Definition(name string) *chaincode.Definition {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.defs[name]
}

// ProcessProposal endorses a transaction proposal (execution phase).
func (p *Peer) ProcessProposal(prop *ledger.Proposal) (*ledger.ProposalResponse, error) {
	resp, err := p.endorser.ProcessProposal(prop)
	if err != nil {
		p.metrics.Inc(metrics.ProposalsRefused)
		return nil, err
	}
	p.metrics.Inc(metrics.ProposalsEndorsed)
	return resp, nil
}

// Metrics returns a snapshot of the peer's operational counters,
// including the world state database's statedb_* counters.
func (p *Peer) Metrics() map[string]uint64 {
	snap := p.metrics.Snapshot()
	st := p.db.Stats()
	snap[metrics.StateDBGets] = st.Gets
	snap[metrics.StateDBPuts] = st.Puts
	snap[metrics.StateDBDeletes] = st.Deletes
	snap[metrics.StateDBRangeScans] = st.RangeScans
	snap[metrics.StateDBSnapshots] = st.Snapshots
	snap[metrics.StateDBCowClones] = st.CowClones
	snap[metrics.StateDBBatches] = st.Batches
	dd := p.validator.DedupStats()
	snap[metrics.DedupHits] = dd.Hits
	snap[metrics.DedupMisses] = dd.Misses
	snap[metrics.DedupEvicted] = dd.Evictions
	p.metricsMu.Lock()
	sources := p.metricsSources
	p.metricsMu.Unlock()
	for _, src := range sources {
		for name, v := range src() {
			snap[name] = v
		}
	}
	return snap
}

// RegisterMetricsSource merges an external counter provider into every
// Metrics snapshot. The transport layer registers its wire_* counters
// here (the peer cannot import the wire package — the dependency points
// the other way), so one endpoint reports the whole process.
func (p *Peer) RegisterMetricsSource(src func() map[string]uint64) {
	p.metricsMu.Lock()
	p.metricsSources = append(p.metricsSources, src)
	p.metricsMu.Unlock()
}

// Timings returns a snapshot of the peer's per-phase validation latency
// histograms (metrics.ValidateVerify/Policy/MVCC/Commit).
func (p *Peer) Timings() map[string]metrics.HistogramSnapshot { return p.timings.Snapshot() }

// CommitBlock runs the validation phase on a delivered block. The
// orderer calls this for every peer through its delivery registration.
func (p *Peer) CommitBlock(block *ledger.Block) error {
	if err := p.validator.ValidateAndCommit(block); err != nil {
		return err
	}
	p.transient.EvictExpired(p.blocks.Height())
	if p.backend != nil {
		// Durability ordering (docs/STORAGE.md §7): the block first, its
		// state batch second. A crash between the two leaves the state
		// watermark below the chain height, and Restore replays the gap;
		// the inverse order could leave state the chain cannot explain.
		if err := p.backend.Blocks().Append(block); err != nil {
			return fmt.Errorf("peer %s: persist block %d: %w", p.Name(), block.Header.Number, err)
		}
		if err := p.flushState(block.Header.Number + 1); err != nil {
			return fmt.Errorf("peer %s: persist state of block %d: %w", p.Name(), block.Header.Number, err)
		}
	}
	p.listenerMu.RLock()
	listeners := append([]CommitListener(nil), p.commitListeners...)
	eventListeners := append([]EventListener(nil), p.eventListeners...)
	p.listenerMu.RUnlock()
	p.metrics.Inc(metrics.BlocksCommitted)
	for i, tx := range block.Transactions {
		code := block.Metadata.ValidationFlags[i]
		p.metrics.Inc(metrics.TxValidPrefix + code.String())
		for _, l := range listeners {
			l(block.Header.Number, tx.TxID, code)
		}
		if code != ledger.Valid || len(eventListeners) == 0 {
			continue
		}
		prp, err := tx.ResponsePayloadParsed()
		if err != nil || prp.Event == nil {
			continue
		}
		for _, l := range eventListeners {
			l(block.Header.Number, tx.TxID, prp.Event)
		}
	}
	// Fan the block out to delivery subscribers last, once the commit is
	// durable and the missing-private-data records are in place.
	p.delivery.Publish(block)
	return nil
}

// OnCommit subscribes a listener to transaction outcomes at this peer.
func (p *Peer) OnCommit(l CommitListener) {
	p.listenerMu.Lock()
	defer p.listenerMu.Unlock()
	p.commitListeners = append(p.commitListeners, l)
}

// OnEvent subscribes a listener to chaincode events of valid
// transactions committed at this peer.
func (p *Peer) OnEvent(l EventListener) {
	p.listenerMu.Lock()
	defer p.listenerMu.Unlock()
	p.eventListeners = append(p.eventListeners, l)
}

// Ledger exposes the peer's blockchain, as any process colocated with the
// peer can read it — the capability the PDC leakage attack (§IV-B) uses.
func (p *Peer) Ledger() *ledger.BlockStore { return p.blocks }

// WorldState exposes the peer's state database for inspection.
func (p *Peer) WorldState() *statedb.DB { return p.db }

// PvtStore exposes the peer's private data store for inspection.
func (p *Peer) PvtStore() *pvtdata.Store { return p.pvt }

// Validator exposes the validation engine (used by benchmarks to measure
// validation latency in isolation).
func (p *Peer) Validator() *validator.Validator { return p.validator }

// MissingPrivateData reports collections whose original private data this
// member peer failed to obtain for a transaction.
func (p *Peer) MissingPrivateData(txID string) []string {
	return p.validator.MissingPrivateData(txID)
}

// --- gossip.Member implementation ---

var _ gossip.Member = (*Peer)(nil)

// GossipName implements gossip.Member.
func (p *Peer) GossipName() string { return p.Name() }

// GossipOrg implements gossip.Member.
func (p *Peer) GossipOrg() string { return p.Org() }

// ReceivePrivateData implements gossip.Member: deposits a disseminated
// private set into the transient store.
func (p *Peer) ReceivePrivateData(set *rwset.TxPvtRWSet) {
	p.transient.Persist(set)
}

// ServePrivateData implements gossip.Member: answers reconciliation
// pulls from the transient store, falling back to reconstruction from
// the committed private store — the path Fabric's reconciler uses when
// the transient data has long been purged.
func (p *Peer) ServePrivateData(txID, collection string) *rwset.CollPvtRWSet {
	if set := p.transient.GetCollection(txID, collection); set != nil {
		return set
	}
	return p.reconstructPvtSet(txID, collection)
}

// reconstructPvtSet rebuilds the original private write set of a
// committed transaction by matching the transaction's hashed writes
// against the peer's current private store. Only write-only sets whose
// keys and values still match (i.e. were not overwritten since) can be
// served this way.
func (p *Peer) reconstructPvtSet(txID, collection string) *rwset.CollPvtRWSet {
	tx, code, err := p.blocks.Transaction(txID)
	if err != nil || code != ledger.Valid {
		return nil
	}
	prp, err := tx.ResponsePayloadParsed()
	if err != nil {
		return nil
	}
	set, err := prp.RWSet()
	if err != nil {
		return nil
	}
	var hashed *rwset.CollHashedRWSet
	for i := range set.CollSets {
		if set.CollSets[i].Collection == collection {
			hashed = &set.CollSets[i]
			break
		}
	}
	if hashed == nil || len(hashed.HashedReads) > 0 {
		// Reads carry versions we cannot reconstruct faithfully.
		return nil
	}
	orig := &rwset.CollPvtRWSet{Collection: collection}
	for _, hw := range hashed.HashedWrites {
		if hw.IsDelete {
			return nil // deletes leave nothing to reconstruct
		}
		key, value, ok := p.findPrivateByHashes(prp.Chaincode, collection, hw.KeyHash, hw.ValueHash)
		if !ok {
			return nil
		}
		orig.Writes = append(orig.Writes, rwset.KVWrite{Key: key, Value: value})
	}
	if !rwset.MatchesHashed(orig, hashed) {
		return nil
	}
	return orig
}

func (p *Peer) findPrivateByHashes(chaincodeName, collection string, keyHash, valueHash []byte) (string, []byte, bool) {
	for _, key := range p.pvt.PrivateKeys(chaincodeName, collection) {
		if !fabcrypto.Equal(fabcrypto.HashString(key), keyHash) {
			continue
		}
		value, _, ok := p.pvt.GetPrivate(chaincodeName, collection, key)
		if !ok || !fabcrypto.Equal(fabcrypto.Hash(value), valueHash) {
			return "", nil, false
		}
		return key, value, true
	}
	return "", nil, false
}

// Reconciler exposes the peer's anti-entropy private-data reconciler:
// tick it to retry missing entries with backoff, inspect its pending and
// gave-up queues, and reinstate abandoned entries.
func (p *Peer) Reconciler() *reconcile.Reconciler { return p.reconciler }

// TickReconcile advances the reconciler by one tick: missing private
// data entries whose backoff elapsed are pulled from other members (via
// gossip, served from their transient or committed stores) and recovered
// values are committed. Returns the number of collections recovered this
// tick.
func (p *Peer) TickReconcile() int { return p.tickReconcile() }

// ReconcileMissing runs one reconciler tick — the managed replacement of
// the old one-shot pull. Entries that keep failing back off exponentially
// (in ticks) and are abandoned after SecurityConfig.ReconcileMaxAttempts;
// see Reconciler for the full control surface. Returns the number of
// collections recovered.
func (p *Peer) ReconcileMissing() int { return p.tickReconcile() }

// tickReconcile runs one reconciler tick and flushes any recovered
// private values to the state store, tagged with the current chain
// height. A flush failure cannot be returned here (the tick API returns
// a count), so it goes sticky in storageErr and fails the next commit.
func (p *Peer) tickReconcile() int {
	n := p.reconciler.Tick()
	if n > 0 && p.backend != nil {
		if err := p.flushState(p.blocks.Height()); err != nil {
			p.storageMu.Lock()
			if p.storageErr == nil {
				p.storageErr = err
			}
			p.storageMu.Unlock()
		}
	}
	return n
}
