// Package orderer implements the ordering service: a cluster of orderer
// nodes running Raft that blindly bundles endorsed transactions into
// blocks — without validating transaction content, exactly as in the
// paper's §II-A2 — and delivers each block to every peer in the channel.
//
// The service is pipelined. Submissions enqueue onto a command queue and
// return a wait handle; a single ordering goroutine drains the queue and
// proposes whole batches per raft round (raft.Cluster.ProposeBatch), so
// N concurrent submitters cost one consensus round instead of N. Cut
// blocks publish to per-peer bounded delivery queues drained by per-peer
// goroutines: a slow peer never stalls the cutter or its faster
// neighbours, while each peer still receives every block in order.
//
// One rule cuts blocks. After each round the committed transactions join
// the pending batch and every full BatchSize block is cut; then, if the
// command queue has run dry, whatever is still pending is cut too. A
// partial batch therefore never waits while the orderer is idle, and no
// client ever asks for a cut.
package orderer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/raft"
)

// ErrStopped is returned by Submit for transactions that arrive after
// Stop. Transactions enqueued before Stop are still ordered and
// delivered during the drain.
var ErrStopped = errors.New("orderer: service stopped")

// ErrCompacted is returned by Deliver and SubscribeFrom when the
// requested start block has been evicted from the RetainBlocks window:
// the orderer can no longer serve that history, and the caller must
// bootstrap from a peer snapshot (or a peer's block store) instead of
// replaying from the orderer. It is distinct from the at-tip case (an
// empty backlog with a live subscription) so a catching-up peer can
// tell "need a snapshot" from "nothing new yet".
var ErrCompacted = errors.New("orderer: requested blocks compacted (snapshot required)")

// Config parameterizes the ordering service.
type Config struct {
	// OrdererCount is the size of the raft cluster.
	OrdererCount int
	// BatchSize is the number of transactions that triggers a block cut,
	// and the most a block holds. A smaller block is cut when the
	// command queue runs dry.
	BatchSize int
	// Seed drives the raft cluster's deterministic jitter.
	Seed int64
	// MaxTicks bounds how long a single consensus round may take.
	MaxTicks int
	// SnapshotInterval, when non-zero, compacts the raft log every N
	// cut blocks. The ordered transactions live on in the retained
	// blocks, so the log entries are redundant once applied.
	SnapshotInterval uint64
	// RetainBlocks, when non-zero, bounds how many cut blocks the
	// orderer keeps for Deliver/Subscribe catch-up; older blocks are
	// evicted (peers replay them from their own block stores). Zero
	// retains every block.
	RetainBlocks int
	// DeliveryQueueBound is the per-peer delivery queue depth above
	// which the ordering goroutine pauses before its next consensus
	// round. Enqueueing a cut block never blocks; the bound only
	// throttles the cutter so an abandoned peer cannot accumulate
	// blocks without limit. Zero or negative disables the throttle.
	DeliveryQueueBound int
}

func (c Config) withDefaults() Config {
	if c.OrdererCount == 0 {
		c.OrdererCount = 3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.MaxTicks == 0 {
		c.MaxTicks = 500
	}
	if c.DeliveryQueueBound == 0 {
		c.DeliveryQueueBound = 64
	}
	return c
}

// BlockHandler receives a freshly cut block. Peers register one handler
// each; the orderer invokes all handlers for every block.
type BlockHandler func(*ledger.Block)

// blockDelivery tracks one cut block's fan-out: the WaitGroup counts the
// per-peer queues the block was enqueued to and drops as each peer's
// handler returns. Synchronous submitters wait on it so the pre-pipeline
// guarantee — Submit returns only after every registered peer processed
// the block — survives the asynchronous delivery path.
type blockDelivery struct {
	wg sync.WaitGroup
}

// Wait is the handle returned by SubmitAsync. The transaction is ordered
// (raft-committed, and cut into a block or pending in the cutter) once
// Done closes; if it filled a BatchSize block during that round, Wait
// additionally blocks until every peer's handler processed the block.
// A block cut because the queue ran dry is not waited for.
type Wait struct {
	done chan struct{}
	err  error
	bd   *blockDelivery
	svc  *Service
}

// Done returns a channel closed once the transaction's consensus round
// finished (successfully or not).
func (w *Wait) Done() <-chan struct{} { return w.done }

// Err returns the ordering error, if any. Valid only after Done closed.
func (w *Wait) Err() error { return w.err }

// Wait blocks until the transaction is ordered and — when it filled a
// BatchSize block in the same round — delivered to every registered peer.
func (w *Wait) Wait() error {
	<-w.done
	if w.err != nil {
		return w.err
	}
	if w.bd != nil {
		w.bd.wg.Wait()
		// Delivery settled: the queues this block was on have drained it,
		// so a retention compaction deferred on their depth can fire now.
		if w.svc != nil {
			w.svc.retryRetainCompact()
		}
	}
	return nil
}

// command is one entry on the ordering queue: a transaction to order
// and its submitter's wait handle.
type command struct {
	tx    *ledger.Transaction
	w     *Wait
	enqAt time.Time
}

// queuedBlock pairs a cut block with its delivery tracker on a peer
// queue. The block pointer is shared across queues; each peer goroutine
// clones lazily before invoking its handler, so the cutter does no
// per-peer copying.
type queuedBlock struct {
	block *ledger.Block
	bd    *blockDelivery
}

// peerQueue is one peer's bounded in-order delivery queue, drained by a
// dedicated goroutine.
type peerQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []queuedBlock
	closed bool
	// dead marks a deregistered subscriber: the drain goroutine keeps
	// consuming queued items so each block's delivery WaitGroup still
	// balances, but stops cloning blocks and invoking the handler.
	dead bool
}

func newPeerQueue() *peerQueue {
	q := &peerQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *peerQueue) enqueue(b *ledger.Block, bd *blockDelivery) {
	q.mu.Lock()
	q.items = append(q.items, queuedBlock{block: b, bd: bd})
	q.cond.Signal()
	q.mu.Unlock()
}

func (q *peerQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// closeDead closes the queue for a deregistered subscriber: remaining
// items are drained for their delivery accounting only, never handed to
// the handler.
func (q *peerQueue) closeDead() {
	q.mu.Lock()
	q.dead = true
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *peerQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Service is the ordering service facade. Transactions submitted through
// Submit/SubmitAsync are totally ordered by the raft cluster, cut into
// blocks and delivered to all registered peers.
type Service struct {
	cfg Config

	// qmu guards the command queue and the stopping flag. Held only for
	// queue manipulation, never across consensus or delivery.
	qmu      sync.Mutex
	qcond    *sync.Cond
	cmds     []command
	stopping bool

	// clusterMu serializes raft cluster access between the ordering
	// goroutine and failure-injection entry points (CrashLeader,
	// RestartNode). Never held together with mu.
	clusterMu sync.Mutex
	cluster   *raft.Cluster
	// consumed is the index of the last raft entry the ordering goroutine
	// took from the cluster, used or dropped; compaction goes up to it.
	// Guarded by clusterMu.
	consumed uint64

	// mu guards the block cutter state below.
	mu      sync.Mutex
	pending []*ledger.Transaction
	// pendingWaits parallels pending: the wait handle to attach a size
	// cut's delivery tracker to, nil for entries without a live waiter.
	pendingWaits []*Wait
	height       uint64
	lastHash     []byte
	// queues holds one delivery queue (and drain goroutine) per
	// registered handler; Subscription.Close removes its entry.
	queues []*peerQueue
	// blocks retains cut blocks from number firstBlock on, so
	// late-joining peers can catch up via Deliver (Fabric's deliver
	// service). RetainBlocks bounds the window.
	blocks     []*ledger.Block
	firstBlock uint64
	// delivered counts blocks cut, for monitoring.
	delivered uint64
	// compactDue defers raft log compaction out of the cut path: cutting
	// happens under mu, compaction needs clusterMu, and holding both
	// would deadlock against the ordering goroutine.
	compactDue bool
	// retainCompactDue marks a compaction scheduled by a RetainBlocks
	// eviction. Unlike compactDue it is drain-gated: it fires only once
	// every registered subscriber's delivery queue is empty — all
	// subscribers are past the compaction point — and stays pending
	// across rounds until then.
	retainCompactDue bool
	// stopped marks the service shut down: no block is cut after it.
	stopped bool

	// bpMu/bpCond let the ordering goroutine sleep until peer queues
	// drain below DeliveryQueueBound; every dequeue broadcasts.
	bpMu   sync.Mutex
	bpCond *sync.Cond

	// wg joins the ordering goroutine and every peer delivery goroutine.
	wg sync.WaitGroup

	metrics metrics.Counters
	timings metrics.Timings
}

// New creates an ordering service with its raft cluster and starts the
// ordering goroutine.
func New(cfg Config) *Service {
	c := cfg.withDefaults()
	s := &Service{
		cfg:     c,
		cluster: raft.NewCluster(c.OrdererCount, c.Seed),
	}
	s.qcond = sync.NewCond(&s.qmu)
	s.bpCond = sync.NewCond(&s.bpMu)
	s.wg.Add(1)
	go s.run()
	return s
}

// RegisterDelivery adds a block handler (one per peer), backed by its own
// delivery queue and goroutine. The subscription lives as long as the
// service; transient subscribers (the wire's order.blocks streams) use
// Subscribe and close the returned handle instead.
func (s *Service) RegisterDelivery(h BlockHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerLocked(h)
}

func (s *Service) registerLocked(h BlockHandler) *Subscription {
	if s.stopped {
		// No block can be cut anymore; skip the drain goroutine.
		return &Subscription{s: s}
	}
	q := newPeerQueue()
	s.queues = append(s.queues, q)
	s.wg.Add(1)
	go s.drainQueue(q, h)
	return &Subscription{s: s, q: q}
}

// Subscription identifies one registered block handler; Close
// deregisters it so the orderer stops cloning and queueing blocks for a
// consumer that went away (a dropped wire stream, for instance).
type Subscription struct {
	s    *Service
	q    *peerQueue
	once sync.Once
}

// Close deregisters the handler. Blocks already queued are discarded
// (their delivery accounting still settles); no further block reaches
// the handler once Close returns, though an invocation already in
// flight on the drain goroutine may complete concurrently. Idempotent.
func (sub *Subscription) Close() {
	if sub == nil || sub.q == nil {
		return
	}
	sub.once.Do(func() {
		s := sub.s
		s.mu.Lock()
		for i, q := range s.queues {
			if q == sub.q {
				s.queues = append(s.queues[:i], s.queues[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		sub.q.closeDead()
		// The removed queue no longer counts toward backpressure; wake
		// the ordering goroutine in case it was waiting on its depth.
		s.bpMu.Lock()
		s.bpCond.Broadcast()
		s.bpMu.Unlock()
	})
}

// drainQueue is one peer's delivery goroutine: it pops blocks in order,
// clones lazily and invokes the handler outside every service lock, so a
// slow handler delays only its own peer.
func (s *Service) drainQueue(q *peerQueue, h BlockHandler) {
	defer s.wg.Done()
	for {
		q.mu.Lock()
		for len(q.items) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.items) == 0 {
			q.mu.Unlock()
			return
		}
		item := q.items[0]
		q.items = q.items[1:]
		dead := q.dead
		q.mu.Unlock()
		if !dead {
			h(item.block.Clone())
		}
		item.bd.wg.Done()
		s.bpMu.Lock()
		s.bpCond.Broadcast()
		s.bpMu.Unlock()
	}
}

// Cluster exposes the raft cluster for failure-injection tests.
func (s *Service) Cluster() *raft.Cluster {
	return s.cluster
}

// Height returns the number of blocks cut so far.
func (s *Service) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.height
}

// SubmitAsync enqueues a transaction for ordering and returns a wait
// handle; the ordering goroutine batches every queued transaction into
// one raft round. Orderers do not inspect transaction content.
func (s *Service) SubmitAsync(tx *ledger.Transaction) *Wait {
	w := &Wait{done: make(chan struct{}), svc: s}
	s.qmu.Lock()
	if s.stopping {
		s.qmu.Unlock()
		s.metrics.Inc(metrics.OrdererRejected)
		w.err = ErrStopped
		close(w.done)
		return w
	}
	s.cmds = append(s.cmds, command{tx: tx, w: w, enqAt: time.Now()})
	s.metrics.Inc(metrics.OrdererEnqueued)
	s.qcond.Signal()
	s.qmu.Unlock()
	return w
}

// Submit orders a transaction synchronously: it returns once the
// transaction is raft-committed and either cut into a block or pending
// behind more queued work, and — if it filled a BatchSize block during
// that round — once every registered peer processed that block. A block
// cut because the queue ran dry is delivered without Submit waiting for
// it. This is the pre-pipeline API; SubmitAsync is the handle-returning
// form.
func (s *Service) Submit(tx *ledger.Transaction) error {
	return s.SubmitAsync(tx).Wait()
}

// Order is the context-honoring form of Submit: it waits for exactly
// what Submit waits for, or returns early with the context's error when
// ctx expires first — the transaction then still completes ordering in
// the background, since ordering is not cancelable once enqueued. This
// is the service.Orderer surface; the wire protocol serves it remotely.
func (s *Service) Order(ctx context.Context, tx *ledger.Transaction) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w := s.SubmitAsync(tx)
	select {
	case <-w.Done():
	case <-ctx.Done():
		return ctx.Err()
	}
	if w.err != nil {
		return w.err
	}
	if w.bd == nil {
		return nil
	}
	if ctx.Done() == nil {
		w.bd.wg.Wait()
		return nil
	}
	delivered := make(chan struct{})
	go func() {
		w.bd.wg.Wait()
		close(delivered)
	}()
	select {
	case <-delivered:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stop shuts the service down: new submissions are refused with
// ErrStopped, already-queued submissions are drained, ordered and cut,
// and all goroutines (ordering and per-peer delivery) are joined before
// Stop returns.
func (s *Service) Stop() {
	s.qmu.Lock()
	s.stopping = true
	s.qcond.Broadcast()
	s.qmu.Unlock()
	s.wg.Wait()
}

// run is the ordering goroutine: it drains the command queue, proposes
// everything queued as one raft batch, cuts blocks, and on Stop closes
// the peer queues once the queue is drained.
func (s *Service) run() {
	defer s.wg.Done()
	for {
		s.qmu.Lock()
		for len(s.cmds) == 0 && !s.stopping {
			s.qcond.Wait()
		}
		s.qmu.Unlock()
		// Coalescing yield: the first enqueue woke us, but other
		// submitters may be runnable and about to enqueue. Yielding once
		// lets them get their transactions in before the round forms, so
		// concurrent submitters share one consensus round instead of
		// convoying through single-entry rounds (this matters most on
		// few-core schedulers, where Signal runs the loop ahead of the
		// remaining submitters).
		runtime.Gosched()
		s.qmu.Lock()
		cmds := s.cmds
		s.cmds = nil
		stopping := s.stopping
		s.qmu.Unlock()

		if len(cmds) > 0 {
			now := time.Now()
			for _, c := range cmds {
				s.timings.Observe(metrics.OrdererQueueWait, now.Sub(c.enqAt))
			}
			s.orderBatch(cmds)
		}

		if stopping {
			if s.queueEmpty() {
				s.shutdown()
				return
			}
			continue
		}
		s.waitForCapacity()
	}
}

// queueEmpty reports whether no command waits on the ordering queue.
func (s *Service) queueEmpty() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.cmds) == 0
}

// shutdown runs on the ordering goroutine once the queue is drained
// after Stop. Nothing is pending then — the round that drained the
// queue cut it — so it only closes every peer queue, letting the
// delivery goroutines exit after their backlogs.
func (s *Service) shutdown() {
	s.mu.Lock()
	s.stopped = true
	queues := append([]*peerQueue(nil), s.queues...)
	s.mu.Unlock()
	for _, q := range queues {
		q.close()
	}
}

// orderBatch proposes one run of queued transactions as a single raft
// round and applies the cut rule: the committed results join the pending
// batch, full BatchSize blocks are cut and handed to their submitters'
// handles, and — when the queue has run dry — the remainder is cut
// without a waiter. Then it resolves the submitters' wait handles.
func (s *Service) orderBatch(batch []command) {
	datas := make([][]byte, len(batch))
	for i, c := range batch {
		datas[i] = c.tx.Bytes()
	}
	s.clusterMu.Lock()
	// Entries committed between rounds (failure injection ticks the
	// cluster) belong to a round that already failed its submitters;
	// drop them so this round sees only what commits during it.
	s.take()
	start := time.Now()
	_, _, err := s.cluster.ProposeBatch(datas, s.cfg.MaxTicks)
	s.timings.Observe(metrics.OrdererConsensus, time.Since(start))
	committed := s.take()
	s.clusterMu.Unlock()
	s.metrics.Inc(metrics.OrdererRounds)

	s.mu.Lock()
	if err != nil {
		for _, c := range batch {
			c.w.err = fmt.Errorf("orderer: order tx %s: %w", c.tx.TxID, err)
		}
	} else {
		s.metrics.Add(metrics.OrdererBatchedTxs, uint64(len(batch)))
		s.appendCommittedLocked(batch, committed)
	}
	for len(s.pending) >= s.cfg.BatchSize {
		bd := s.cutBlockLocked(s.pending[:s.cfg.BatchSize])
		for _, w := range s.pendingWaits[:s.cfg.BatchSize] {
			if w != nil {
				w.bd = bd
			}
		}
		s.pending = s.pending[s.cfg.BatchSize:]
		s.pendingWaits = s.pendingWaits[s.cfg.BatchSize:]
	}
	// The dry cut runs on failed rounds too, so a batch left by an
	// earlier round is never stranded. Its block is not attached to the
	// handles: submitters wait for the round, not for this delivery.
	if len(s.pending) > 0 && s.queueEmpty() {
		s.cutBlockLocked(s.pending)
		s.pending, s.pendingWaits = nil, nil
	}
	// Handles resolve at the end of this round; a transaction still
	// pending then is delivered by a later cut its submitter does not
	// wait for, so its handle must never be touched again.
	clear(s.pendingWaits)
	s.mu.Unlock()
	// Compact before resolving handles so callers observe the compacted
	// log as soon as Submit returns (SnapshotInterval semantics).
	s.maybeCompact()
	for _, c := range batch {
		close(c.w.done)
	}
}

// appendCommittedLocked moves a round's committed raft entries into the
// pending batch. Raft may deliver entries from an earlier round that
// missed its tick budget together with this batch. The single proposer
// makes commit order match propose order, so this round's handles match
// their entries front-to-back by TxID; earlier stragglers get no handle
// (theirs already failed). An entry that does not parse fails every
// handle from it on. Caller holds s.mu.
func (s *Service) appendCommittedLocked(batch []command, committed []raft.Entry) {
	next := 0
	for _, e := range committed {
		parsed, perr := ledger.ParseTransaction(e.Data)
		if perr != nil {
			for _, c := range batch[next:] {
				c.w.err = fmt.Errorf("orderer: committed entry %d: %w", e.Index, perr)
			}
			return
		}
		var w *Wait
		if next < len(batch) && parsed.TxID == batch[next].tx.TxID {
			w = batch[next].w
			next++
		}
		s.pending = append(s.pending, parsed)
		s.pendingWaits = append(s.pendingWaits, w)
	}
}

// waitForCapacity pauses the ordering goroutine until every peer queue
// is at or below DeliveryQueueBound — the backpressure half of the
// bounded delivery queues. Cut blocks are never dropped and enqueueing
// never blocks; only the next consensus round waits.
func (s *Service) waitForCapacity() {
	bound := s.cfg.DeliveryQueueBound
	if bound <= 0 {
		return
	}
	s.mu.Lock()
	queues := append([]*peerQueue(nil), s.queues...)
	s.mu.Unlock()
	waited := false
	s.bpMu.Lock()
	defer s.bpMu.Unlock()
	for {
		over := false
		for _, q := range queues {
			if q.depth() > bound {
				over = true
				break
			}
		}
		if !over {
			return
		}
		if !waited {
			waited = true
			s.metrics.Inc(metrics.OrdererBackpressureWaits)
		}
		s.bpCond.Wait()
	}
}

// maybeCompact performs a raft log compaction deferred by a block cut.
// It runs without mu held: compaction takes clusterMu, and the ordering
// goroutine must never hold both. SnapshotInterval compactions fire
// unconditionally (the interval is the operator's explicit cadence); a
// RetainBlocks-eviction compaction is drain-gated — it waits until every
// registered subscriber's queue is empty, i.e. all subscribers are past
// the compaction point, and retries on later rounds until then (queued
// blocks keep their own references, so the gate is a policy bound, not a
// correctness one — it keeps "the log is compacted" equivalent to
// "every subscriber has the blocks").
func (s *Service) maybeCompact() {
	s.mu.Lock()
	due := s.compactDue
	s.compactDue = false
	if s.retainCompactDue && !due {
		drained := true
		for _, q := range s.queues {
			if q.depth() > 0 {
				drained = false
				break
			}
		}
		due = drained
	}
	if due {
		s.retainCompactDue = false
	}
	s.mu.Unlock()
	if !due {
		return
	}
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	if s.consumed > 0 {
		// Every entry the orderer consumed lives on in a block (cut or
		// pending) or was dropped with its failed round; the logs need
		// not keep it.
		s.cluster.Compact(s.consumed)
	}
}

// take hands over the entries the cluster committed since the last take
// and advances the consumed mark. Caller holds clusterMu.
func (s *Service) take() []raft.Entry {
	entries := s.cluster.TakeCommitted()
	if n := len(entries); n > 0 {
		s.consumed = entries[n-1].Index
	}
	return entries
}

// retryRetainCompact re-runs the drain-gated retention compaction if one
// is still pending. Called by delivery waiters after their block's
// fan-out settled, the deterministic moment the queues were seen empty.
func (s *Service) retryRetainCompact() {
	s.mu.Lock()
	pending := s.retainCompactDue
	s.mu.Unlock()
	if pending {
		s.maybeCompact()
	}
}

// cutBlockLocked cuts a block from txs, retains it, and enqueues it onto
// every peer delivery queue. It returns the block's delivery tracker.
// No cloning happens here: the retained block is immutable and peer
// goroutines clone lazily before invoking handlers.
func (s *Service) cutBlockLocked(txs []*ledger.Transaction) *blockDelivery {
	batch := make([]*ledger.Transaction, len(txs))
	copy(batch, txs)
	block := ledger.NewBlock(s.height, s.lastHash, batch)
	s.height++
	s.lastHash = block.Hash()
	s.delivered++
	s.blocks = append(s.blocks, block)
	if s.cfg.RetainBlocks > 0 && len(s.blocks) > s.cfg.RetainBlocks {
		evict := len(s.blocks) - s.cfg.RetainBlocks
		s.blocks = append([]*ledger.Block(nil), s.blocks[evict:]...)
		s.firstBlock += uint64(evict)
		s.metrics.Add(metrics.OrdererBlocksEvicted, uint64(evict))
		// Retention policy: once blocks leave the delivery window the
		// orderer cannot serve that history anyway (Deliver returns
		// ErrCompacted) — the raft entries behind them are dead weight.
		// Schedule a log compaction in step with the eviction; maybeCompact
		// defers it until every registered subscriber has drained past the
		// evicted blocks.
		s.retainCompactDue = true
	}
	s.metrics.Inc(metrics.BlocksOrdered)
	s.metrics.Add(metrics.TxOrdered, uint64(len(batch)))
	if s.cfg.SnapshotInterval > 0 && s.delivered%s.cfg.SnapshotInterval == 0 {
		s.compactDue = true
	}
	bd := &blockDelivery{}
	bd.wg.Add(len(s.queues))
	for _, q := range s.queues {
		q.enqueue(block, bd)
	}
	return bd
}

// Subscribe atomically returns clones of every retained block and
// registers the handler for all future blocks, so a late-joining peer
// misses nothing between catch-up and live delivery. With RetainBlocks
// set, blocks evicted from the window are absent from the backlog.
// Closing the returned Subscription deregisters the handler.
func (s *Service) Subscribe(h BlockHandler) ([]*ledger.Block, *Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*ledger.Block, 0, len(s.blocks))
	for _, b := range s.blocks {
		out = append(out, b.Clone())
	}
	return out, s.registerLocked(h)
}

// SubscribeFrom is Subscribe with an explicit start block: the backlog
// holds clones of retained blocks from number `from` on, and the handler
// is registered for all future blocks in the same critical section.
// When `from` predates the retention window the subscriber cannot be
// served contiguously — SubscribeFrom registers nothing and returns
// ErrCompacted, the signal to bootstrap from a snapshot instead. A
// `from` at (or beyond) the tip is not an error: the backlog is empty
// and the subscription is live.
func (s *Service) SubscribeFrom(from uint64, h BlockHandler) ([]*ledger.Block, *Subscription, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.firstBlock {
		return nil, nil, fmt.Errorf("%w: block %d predates retained window [%d,%d)", ErrCompacted, from, s.firstBlock, s.height)
	}
	var out []*ledger.Block
	if from < s.height {
		out = make([]*ledger.Block, 0, s.height-from)
		for _, b := range s.blocks[from-s.firstBlock:] {
			out = append(out, b.Clone())
		}
	}
	return out, s.registerLocked(h), nil
}

// Deliver returns clones of retained blocks from number `from` on —
// Fabric's deliver service, used by late-joining peers to catch up. A
// `from` at or beyond the chain tip returns (nil, nil). With
// RetainBlocks set, a `from` that has been evicted from the retention
// window returns ErrCompacted: that history must come from a peer
// snapshot or block store instead.
func (s *Service) Deliver(from uint64) ([]*ledger.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.firstBlock {
		return nil, fmt.Errorf("%w: block %d predates retained window [%d,%d)", ErrCompacted, from, s.firstBlock, s.height)
	}
	if from >= s.height {
		return nil, nil
	}
	out := make([]*ledger.Block, 0, s.height-from)
	for _, b := range s.blocks[from-s.firstBlock:] {
		out = append(out, b.Clone())
	}
	return out, nil
}

// FirstBlock returns the lowest block number still retained for
// Deliver/Subscribe catch-up (0 unless RetainBlocks evicted history).
func (s *Service) FirstBlock() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstBlock
}

// Metrics returns a snapshot of the ordering service's counters.
func (s *Service) Metrics() map[string]uint64 { return s.metrics.Snapshot() }

// Timings returns a snapshot of the ordering service's latency
// histograms (consensus rounds and queue wait).
func (s *Service) Timings() map[string]metrics.HistogramSnapshot {
	return s.timings.Snapshot()
}

// CrashLeader crashes the current raft leader, for failure-injection
// tests; returns the crashed node ID or "".
func (s *Service) CrashLeader() raft.NodeID {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	leader, err := s.cluster.ElectLeader(s.cfg.MaxTicks)
	if err != nil {
		return ""
	}
	id := leader.ID()
	s.cluster.Crash(id)
	return id
}

// RestartNode brings a crashed orderer back.
func (s *Service) RestartNode(id raft.NodeID) {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	s.cluster.Restart(id)
}
