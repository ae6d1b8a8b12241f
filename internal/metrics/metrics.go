// Package metrics provides lightweight operational counters for nodes:
// proposals endorsed and refused, transactions validated by outcome,
// blocks committed, private data disseminated. Counters are cheap enough
// to stay always-on and are exposed as consistent snapshots.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Counters is a concurrent counter set. The zero value is ready to use.
type Counters struct {
	mu     sync.Mutex
	values map[string]uint64
}

// Inc adds one to the named counter.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Add adds delta to the named counter.
func (c *Counters) Add(name string, delta uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.values == nil {
		c.values = make(map[string]uint64)
	}
	c.values[name] += delta
}

// Get returns the named counter's value.
func (c *Counters) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.values[name]
}

// Snapshot returns a copy of every counter.
func (c *Counters) Snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.values))
	for k, v := range c.values {
		out[k] = v
	}
	return out
}

// String renders the counters sorted by name, one per line.
func (c *Counters) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%d\n", name, snap[name])
	}
	return b.String()
}

// Well-known counter names used by the peer and orderer.
const (
	// ProposalsEndorsed counts successful endorsements.
	ProposalsEndorsed = "proposals_endorsed"
	// ProposalsRefused counts proposals that produced no endorsement.
	ProposalsRefused = "proposals_refused"
	// BlocksCommitted counts blocks appended to the peer's chain.
	BlocksCommitted = "blocks_committed"
	// TxValidPrefix prefixes per-validation-code transaction counters,
	// e.g. "tx_VALID", "tx_MVCC_READ_CONFLICT".
	TxValidPrefix = "tx_"
	// BlocksOrdered counts blocks cut by the ordering service.
	BlocksOrdered = "blocks_ordered"
	// TxOrdered counts transactions ordered.
	TxOrdered = "tx_ordered"
)

// Well-known counter names emitted by the pipelined ordering service
// (internal/orderer): submit-queue movement, consensus batching and
// per-peer delivery health. Mean proposal batch size is
// orderer_txs_proposed / orderer_consensus_rounds.
const (
	// OrdererEnqueued counts transactions accepted into the submit queue.
	OrdererEnqueued = "orderer_txs_enqueued"
	// OrdererRounds counts raft consensus rounds driven by the ordering
	// goroutine (each round proposes a whole batch).
	OrdererRounds = "orderer_consensus_rounds"
	// OrdererBatchedTxs counts transactions proposed across all rounds.
	OrdererBatchedTxs = "orderer_txs_proposed"
	// OrdererRejected counts transactions refused because the service
	// was stopped.
	OrdererRejected = "orderer_txs_rejected"
	// OrdererBackpressureWaits counts ordering-loop pauses forced by a
	// peer delivery queue at its bound.
	OrdererBackpressureWaits = "orderer_backpressure_waits"
	// OrdererBlocksEvicted counts blocks dropped from the orderer's
	// bounded retention window (peers replay older blocks from their own
	// block stores).
	OrdererBlocksEvicted = "orderer_blocks_evicted"
)

// Well-known counter names emitted by the private-data reconciler
// (internal/reconcile): per-attempt outcomes and queue movements.
const (
	// ReconcileEnqueued counts (txID, collection) entries newly picked up
	// by the reconciler from the peer's missing-private-data records.
	ReconcileEnqueued = "reconcile_enqueued"
	// ReconcileAttempts counts reconciliation attempts (pulls), whatever
	// the outcome.
	ReconcileAttempts = "reconcile_attempts"
	// ReconcileRecovered counts entries whose original private data was
	// recovered and committed.
	ReconcileRecovered = "reconcile_recovered"
	// ReconcileFailures counts failed attempts (no member could serve a
	// matching original set).
	ReconcileFailures = "reconcile_attempt_failures"
	// ReconcileGiveUps counts entries abandoned after the configured
	// maximum number of attempts.
	ReconcileGiveUps = "reconcile_gave_up"
)

// ReconcileAttempt is the histogram name timing each reconciliation
// attempt (the gossip pull plus hash verification and commit).
const ReconcileAttempt = "reconcile_attempt"

// Well-known counter names emitted by the wire transport
// (internal/wire): frame and byte traffic, codec work, buffer-pool
// effectiveness and event batching. They are process-wide (all
// connections share them) and surface through peer.Metrics().
const (
	// WireFramesIn / WireFramesOut count frames received / enqueued.
	WireFramesIn  = "wire_frames_in"
	WireFramesOut = "wire_frames_out"
	// WireBytesIn / WireBytesOut count framed bytes (header + payload +
	// trailer) received / enqueued.
	WireBytesIn  = "wire_bytes_in"
	WireBytesOut = "wire_bytes_out"
	// WireEncodes / WireDecodes count payload encode / decode
	// operations; WireEncodeNanos / WireDecodeNanos accumulate their
	// total duration, so ns-per-op is Nanos/Count.
	WireEncodes     = "wire_encodes"
	WireDecodes     = "wire_decodes"
	WireEncodeNanos = "wire_encode_ns"
	WireDecodeNanos = "wire_decode_ns"
	// WirePoolHits / WirePoolMisses count buffer-pool outcomes; the hit
	// rate is Hits/(Hits+Misses).
	WirePoolHits   = "wire_pool_hits"
	WirePoolMisses = "wire_pool_misses"
	// WireBatchFrames counts multi-event frames sent; WireBatchedEvents
	// counts the events they carried.
	WireBatchFrames   = "wire_batch_frames"
	WireBatchedEvents = "wire_batched_events"
)

// WireEncode / WireDecode are the histogram names timing wire payload
// encode and decode operations.
const (
	WireEncode = "wire_encode"
	WireDecode = "wire_decode"
)

// Well-known counter names emitted by the peer delivery service
// (internal/deliver): stream fan-out and subscriber health.
const (
	// DeliverBlocks counts blocks published to the delivery service.
	DeliverBlocks = "deliver_blocks"
	// DeliverStatuses counts per-transaction commit-status events
	// published.
	DeliverStatuses = "deliver_statuses"
	// DeliverReplayedBlocks counts blocks replayed from the block store
	// into catching-up subscribers (checkpointed replay).
	DeliverReplayedBlocks = "deliver_replayed_blocks"
	// DeliverSubscriptions counts subscriptions opened.
	DeliverSubscriptions = "deliver_subscriptions"
	// DeliverEvictedSlow counts subscribers evicted because their
	// bounded buffer overflowed.
	DeliverEvictedSlow = "deliver_evicted_slow"
)

// Well-known counter names exported from the world state database
// (statedb.Stats, merged into the peer's metrics snapshot).
const (
	// StateDBGets counts point reads, batched version reads included.
	StateDBGets = "statedb_gets"
	// StateDBPuts counts single-key writes.
	StateDBPuts = "statedb_puts"
	// StateDBDeletes counts single-key deletions.
	StateDBDeletes = "statedb_deletes"
	// StateDBRangeScans counts range scans (values or versions-only).
	StateDBRangeScans = "statedb_range_scans"
	// StateDBSnapshots counts consistent read views taken (one per
	// endorsement simulation that reads state).
	StateDBSnapshots = "statedb_snapshots"
	// StateDBCowClones counts namespace states cloned because a live
	// snapshot pinned them when a write arrived.
	StateDBCowClones = "statedb_cow_clones"
	// StateDBBatches counts atomic multi-namespace batch writes.
	StateDBBatches = "statedb_batches"
)

// Histogram names of the world state database (statedb timing observer).
const (
	// StateDBScan times each range scan.
	StateDBScan = "statedb_scan"
	// StateDBBatch times each atomic batch write, locking included.
	StateDBBatch = "statedb_batch"
	// StateDBLockWait times how long batch writes waited for the locks
	// of the namespaces they touch.
	StateDBLockWait = "statedb_lock_wait"
)

// Well-known counter names of the validator's sharded duplicate-TxID
// cache (internal/validator, merged into the peer's metrics snapshot).
const (
	// DedupHits counts replay lookups answered by the cache — duplicate
	// submissions rejected before signature verification.
	DedupHits = "dedup_hits"
	// DedupMisses counts lookups that fell through to the authoritative
	// block-store index.
	DedupMisses = "dedup_misses"
	// DedupEvicted counts resident transaction IDs displaced at
	// capacity.
	DedupEvicted = "dedup_evicted"
)

// Well-known counter names emitted by the gateway's admission control
// (internal/gateway).
const (
	// GatewayAdmitted counts submissions that passed the token-bucket
	// admission check (or were submitted with admission disabled).
	GatewayAdmitted = "gateway_admitted"
	// GatewayShed counts submissions rejected with ErrOverloaded.
	GatewayShed = "gateway_shed"
	// GatewayFlushes counts targeted orderer flush requests issued by
	// commit waits; the orderer elides those whose transaction no
	// longer sits in the pending partial batch.
	GatewayFlushes = "gateway_flushes"
)

// Well-known counter names emitted by the pipelined ordering service's
// flush path.
const (
	// OrdererFlushesElided counts targeted flush requests dropped
	// because the transaction was no longer in the pending batch when
	// the marker was processed (already cut, typically by a timer or a
	// concurrent waiter's flush).
	OrdererFlushesElided = "orderer_flushes_elided"
)

// Histogram names of the delivery path.
const (
	// DeliverPublish times the fan-out of one committed block to every
	// subscriber.
	DeliverPublish = "deliver_publish"
	// DeliverCommitWait times submit→commit-notified latency: from
	// handing a transaction to the orderer until its final commit-status
	// event arrives on the deliver stream (observed by the gateway).
	DeliverCommitWait = "deliver_commit_wait"
)
