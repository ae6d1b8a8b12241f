package orderer

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
)

func tx(id string) *ledger.Transaction {
	return &ledger.Transaction{
		TxID:            id,
		ChannelID:       "c1",
		Proposal:        &ledger.Proposal{TxID: id},
		ResponsePayload: []byte(`{"tx_id":"` + id + `"}`),
	}
}

func TestOrderingAndDelivery(t *testing.T) {
	svc := New(Config{OrdererCount: 3, BatchSize: 1, Seed: 1})
	var mu sync.Mutex
	var delivered []*ledger.Block
	svc.RegisterDelivery(func(b *ledger.Block) {
		mu.Lock()
		defer mu.Unlock()
		delivered = append(delivered, b)
	})

	for i := 0; i < 3; i++ {
		if err := svc.Submit(tx(fmt.Sprintf("tx%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if len(delivered) != 3 {
		t.Fatalf("delivered %d blocks", len(delivered))
	}
	for i, b := range delivered {
		if b.Header.Number != uint64(i) {
			t.Fatalf("block %d numbered %d", i, b.Header.Number)
		}
		if len(b.Transactions) != 1 || b.Transactions[i%1].TxID != fmt.Sprintf("tx%d", i) {
			t.Fatalf("block %d contents wrong", i)
		}
		if !b.VerifyDataHash() {
			t.Fatalf("block %d data hash broken", i)
		}
	}
	if svc.Height() != 3 {
		t.Fatalf("height = %d", svc.Height())
	}
}

func TestBatchingAndFlush(t *testing.T) {
	svc := New(Config{OrdererCount: 1, BatchSize: 3, Seed: 2})
	var delivered []*ledger.Block
	svc.RegisterDelivery(func(b *ledger.Block) { delivered = append(delivered, b) })

	_ = svc.Submit(tx("a"))
	_ = svc.Submit(tx("b"))
	if len(delivered) != 0 {
		t.Fatal("block cut before batch size")
	}
	_ = svc.Submit(tx("c"))
	if len(delivered) != 1 || len(delivered[0].Transactions) != 3 {
		t.Fatalf("batch cut wrong: %d blocks", len(delivered))
	}

	// Flush cuts a partial batch (the BatchTimeout path).
	_ = svc.Submit(tx("d"))
	svc.Flush()
	if len(delivered) != 2 || len(delivered[1].Transactions) != 1 {
		t.Fatalf("flush cut wrong")
	}
	svc.Flush() // empty flush is a no-op
	if len(delivered) != 2 {
		t.Fatal("empty flush cut a block")
	}
}

func TestBlocksChainAcrossBatches(t *testing.T) {
	svc := New(Config{OrdererCount: 3, BatchSize: 1, Seed: 3})
	var blocks []*ledger.Block
	svc.RegisterDelivery(func(b *ledger.Block) { blocks = append(blocks, b) })
	_ = svc.Submit(tx("a"))
	_ = svc.Submit(tx("b"))

	if got, want := string(blocks[1].Header.PrevHash), string(blocks[0].Hash()); got != want {
		t.Fatal("blocks do not chain")
	}
}

// TestEachPeerGetsOwnClone: each peer's block owns its validation flags
// and shares the transactions. One of three peers rewrites every flag it
// is handed while the other two read theirs and re-verify the data hash
// (the shared transactions' memoized bytes) on their own delivery
// goroutines; neither they nor the orderer's retained blocks see the
// rewrite. CI runs it under -race.
func TestEachPeerGetsOwnClone(t *testing.T) {
	const blocks = 4
	svc := New(Config{OrdererCount: 1, BatchSize: 1, Seed: 4})
	var mu sync.Mutex
	got := make([][]*ledger.Block, 3)
	seen := make([][]ledger.ValidationCode, 3)
	for i := range got {
		i := i
		svc.RegisterDelivery(func(b *ledger.Block) {
			if i == 0 {
				for j := range b.Metadata.ValidationFlags {
					b.Metadata.ValidationFlags[j] = ledger.MVCCConflict
				}
			}
			flags := append([]ledger.ValidationCode(nil), b.Metadata.ValidationFlags...)
			if !b.VerifyDataHash() {
				t.Errorf("peer %d: block %d data hash broken", i, b.Header.Number)
			}
			mu.Lock()
			got[i] = append(got[i], b)
			seen[i] = append(seen[i], flags...)
			mu.Unlock()
		})
	}
	for i := 0; i < blocks; i++ {
		if err := svc.Submit(tx(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	svc.Stop()

	for n, b := range mustDeliver(t, svc, 0) {
		if b.Metadata.ValidationFlags[0] != 0 {
			t.Fatalf("retained block %d carries flag %v", n, b.Metadata.ValidationFlags[0])
		}
		for i := 1; i < 3; i++ {
			if got[i][n] == got[0][n] {
				t.Fatalf("peers 0 and %d share block %d", i, n)
			}
			if got[i][n].Transactions[0] != got[0][n].Transactions[0] {
				t.Fatalf("peers 0 and %d hold different copies of block %d's transaction", i, n)
			}
			if seen[i][n] != 0 || got[i][n].Metadata.ValidationFlags[0] != 0 {
				t.Fatalf("peer %d sees peer 0's flag on block %d", i, n)
			}
		}
	}
}

// TestLeaderCrashMidStream crashes the raft leader between submissions;
// ordering must continue through the re-elected leader.
func TestLeaderCrashMidStream(t *testing.T) {
	svc := New(Config{OrdererCount: 3, BatchSize: 1, Seed: 5})
	var delivered []*ledger.Block
	svc.RegisterDelivery(func(b *ledger.Block) { delivered = append(delivered, b) })

	if err := svc.Submit(tx("before")); err != nil {
		t.Fatal(err)
	}
	crashed := svc.CrashLeader()
	if crashed == "" {
		t.Fatal("no leader to crash")
	}
	if err := svc.Submit(tx("after")); err != nil {
		t.Fatalf("submit after leader crash: %v", err)
	}
	if len(delivered) != 2 {
		t.Fatalf("delivered %d blocks", len(delivered))
	}
	if delivered[1].Transactions[0].TxID != "after" {
		t.Fatal("post-crash transaction lost")
	}
	svc.RestartNode(crashed)
	if err := svc.Submit(tx("final")); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 3 {
		t.Fatal("post-restart submission lost")
	}
}

func TestOrdererDoesNotInspectContent(t *testing.T) {
	// Orderers bundle blindly: a transaction with a bogus payload is
	// ordered fine (validation happens at peers).
	svc := New(Config{OrdererCount: 1, BatchSize: 1, Seed: 6})
	var delivered []*ledger.Block
	svc.RegisterDelivery(func(b *ledger.Block) { delivered = append(delivered, b) })
	bogus := tx("bogus")
	bogus.ResponsePayload = []byte("not-even-json")
	if err := svc.Submit(bogus); err != nil {
		t.Fatalf("orderer rejected content: %v", err)
	}
	if len(delivered) != 1 {
		t.Fatal("bogus tx not delivered")
	}
}

func TestBatchTimeoutCutsPartialBatch(t *testing.T) {
	svc := New(Config{OrdererCount: 1, BatchSize: 100, BatchTimeout: 20 * time.Millisecond, Seed: 7})
	blockCh := make(chan *ledger.Block, 1)
	svc.RegisterDelivery(func(b *ledger.Block) { blockCh <- b })

	if err := svc.Submit(tx("timed")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-blockCh:
		if len(b.Transactions) != 1 || b.Transactions[0].TxID != "timed" {
			t.Fatalf("timeout block wrong: %+v", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BatchTimeout did not cut a block")
	}
	// No further block appears (timer disarmed).
	select {
	case <-blockCh:
		t.Fatal("spurious second block")
	case <-time.After(60 * time.Millisecond):
	}
}

// TestRetainBlocksBoundsDeliverWindow: with RetainBlocks set the orderer
// keeps only the newest N blocks; Deliver serves from the window, returns
// nil for evicted history, and Subscribe's backlog starts at the window.
func TestRetainBlocksBoundsDeliverWindow(t *testing.T) {
	svc := New(Config{OrdererCount: 1, BatchSize: 1, Seed: 9, RetainBlocks: 3})
	for i := 0; i < 8; i++ {
		if err := svc.Submit(tx(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if svc.Height() != 8 {
		t.Fatalf("height = %d", svc.Height())
	}
	if got, err := svc.Deliver(0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Deliver(0) = %d blocks, err %v, want ErrCompacted", len(got), err)
	}
	if got, err := svc.Deliver(4); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Deliver(4) = %d blocks, err %v, want ErrCompacted", len(got), err)
	}
	if got, err := svc.Deliver(8); got != nil || err != nil {
		t.Fatalf("Deliver(at tip) = %d blocks, err %v, want empty and nil", len(got), err)
	}
	window, err := svc.Deliver(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(window) != 3 {
		t.Fatalf("Deliver(5) returned %d blocks, want 3", len(window))
	}
	for i, b := range window {
		if b.Header.Number != uint64(5+i) {
			t.Fatalf("window block %d numbered %d", i, b.Header.Number)
		}
	}
	backlog, _ := svc.Subscribe(func(*ledger.Block) {})
	if len(backlog) != 3 || backlog[0].Header.Number != 5 {
		t.Fatalf("Subscribe backlog wrong: %d blocks", len(backlog))
	}
	if svc.Metrics()[metrics.OrdererBlocksEvicted] != 5 {
		t.Fatalf("evicted counter = %d", svc.Metrics()[metrics.OrdererBlocksEvicted])
	}
}

// TestSubscribeFromDistinguishesCompactedFromTip: SubscribeFrom returns
// ErrCompacted (and registers nothing) below the retained window, an
// empty backlog with a live subscription at the tip, and the retained
// suffix in between.
func TestSubscribeFromDistinguishesCompactedFromTip(t *testing.T) {
	svc := New(Config{OrdererCount: 1, BatchSize: 1, Seed: 11, RetainBlocks: 3})
	for i := 0; i < 8; i++ {
		if err := svc.Submit(tx(fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := svc.SubscribeFrom(2, func(*ledger.Block) {}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("SubscribeFrom(2) err = %v, want ErrCompacted", err)
	}
	backlog, sub, err := svc.SubscribeFrom(6, func(*ledger.Block) {})
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	if len(backlog) != 2 || backlog[0].Header.Number != 6 {
		t.Fatalf("SubscribeFrom(6) backlog wrong: %d blocks", len(backlog))
	}
	live := make(chan *ledger.Block, 1)
	backlog, sub, err = svc.SubscribeFrom(8, func(b *ledger.Block) { live <- b })
	if err != nil || len(backlog) != 0 {
		t.Fatalf("SubscribeFrom(tip) = %d blocks, err %v", len(backlog), err)
	}
	defer sub.Close()
	if err := svc.Submit(tx("tip")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-live:
		if b.Header.Number != 8 {
			t.Fatalf("live block numbered %d", b.Header.Number)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tip subscription never went live")
	}
	if got := svc.FirstBlock(); got != 6 {
		t.Fatalf("FirstBlock = %d, want 6", got)
	}
}

// TestRetainBlocksCompactsRaftLog: RetainBlocks alone (no
// SnapshotInterval) triggers raft log compaction in step with block
// eviction, once the registered subscriber has drained — the bounded-log
// half of the snapshot-join story.
func TestRetainBlocksCompactsRaftLog(t *testing.T) {
	svc := New(Config{OrdererCount: 3, BatchSize: 1, Seed: 12, RetainBlocks: 2})
	svc.RegisterDelivery(func(*ledger.Block) {})
	for i := 0; i < 6; i++ {
		if err := svc.Submit(tx(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Submit waits for delivery, so by the round after the first eviction
	// the queue was observed empty and the drain-gated compaction fired.
	leader, err := svc.Cluster().ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	if leader.FirstIndex() == 0 {
		t.Fatal("raft log never compacted despite RetainBlocks evictions")
	}
	if err := svc.Submit(tx("post")); err != nil {
		t.Fatal(err)
	}
	if svc.Height() != 7 {
		t.Fatalf("height = %d", svc.Height())
	}
}

// TestUnboundedRetentionByDefault: the zero config keeps every block, so
// Deliver(0) replays the whole chain — the pre-retention behavior.
func TestUnboundedRetentionByDefault(t *testing.T) {
	svc := New(Config{OrdererCount: 1, BatchSize: 1, Seed: 10})
	for i := 0; i < 5; i++ {
		if err := svc.Submit(tx(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := svc.Deliver(0); err != nil || len(got) != 5 {
		t.Fatalf("Deliver(0) returned %d blocks, err %v, want 5", len(got), err)
	}
	if n := svc.Metrics()[metrics.OrdererBlocksEvicted]; n != 0 {
		t.Fatalf("evicted %d blocks with unbounded retention", n)
	}
}

func TestSnapshotIntervalCompactsRaftLog(t *testing.T) {
	svc := New(Config{OrdererCount: 3, BatchSize: 1, Seed: 8, SnapshotInterval: 2})
	svc.RegisterDelivery(func(*ledger.Block) {})
	for i := 0; i < 6; i++ {
		if err := svc.Submit(tx(fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	leader, err := svc.Cluster().ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	if leader.FirstIndex() == 0 {
		t.Fatal("raft log never compacted despite SnapshotInterval")
	}
	// Ordering continues after compaction.
	if err := svc.Submit(tx("post")); err != nil {
		t.Fatal(err)
	}
	if svc.Height() != 7 {
		t.Fatalf("height = %d", svc.Height())
	}
}

// TestSubscriptionCloseStopsDelivery: closing the handle returned by
// Subscribe deregisters the handler — later blocks are neither cloned
// nor queued for it — while Submit's delivery accounting still settles.
func TestSubscriptionCloseStopsDelivery(t *testing.T) {
	svc := New(Config{OrdererCount: 1, BatchSize: 1, Seed: 9, DeliveryQueueBound: 1})
	var mu sync.Mutex
	var nums []uint64
	backlog, sub := svc.Subscribe(func(b *ledger.Block) {
		mu.Lock()
		defer mu.Unlock()
		nums = append(nums, b.Header.Number)
	})
	if len(backlog) != 0 {
		t.Fatalf("backlog holds %d blocks on a fresh service", len(backlog))
	}
	if err := svc.Submit(tx("before")); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close() // idempotent
	for i := 0; i < 5; i++ {
		if err := svc.Submit(tx(fmt.Sprintf("after%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, n := range nums {
		if n > 0 {
			t.Fatalf("block %d delivered after Close", n)
		}
	}
	if svc.Height() != 6 {
		t.Fatalf("height = %d, want 6", svc.Height())
	}
}

// TestRoundAllocationIndependentOfHeight: one ordering round allocates
// about as much at chain height ≈20 000 as at ≈100. A round must pay for
// its own batch, never for the committed history behind it.
func TestRoundAllocationIndependentOfHeight(t *testing.T) {
	svc := New(Config{OrdererCount: 3, BatchSize: 1, Seed: 19})
	defer svc.Stop()
	id := 0
	fill := func(height int) {
		waits := make([]*Wait, 0, height)
		for ; id < height; id++ {
			waits = append(waits, svc.SubmitAsync(tx(fmt.Sprintf("h%06d", id))))
		}
		for _, w := range waits {
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// roundAlloc is the median allocation of single-transaction rounds;
	// the median ignores the rare round that regrows a slice.
	roundAlloc := func() uint64 {
		const rounds = 15
		var ms runtime.MemStats
		deltas := make([]uint64, rounds)
		for i := range deltas {
			next := tx(fmt.Sprintf("h%06d", id))
			id++
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if err := svc.Submit(next); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			deltas[i] = ms.TotalAlloc - before
		}
		slices.Sort(deltas)
		return deltas[rounds/2]
	}

	fill(100)
	low := roundAlloc()
	fill(20_000)
	high := roundAlloc()
	t.Logf("bytes allocated per round: %d at height ≈100, %d at height ≈20000", low, high)
	if high > 2*low {
		t.Fatalf("a round at height ≈20000 allocates %d bytes, more than twice the %d at height ≈100", high, low)
	}
}
