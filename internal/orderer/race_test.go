package orderer

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ledger"
)

// TestBatchTimerStopDrains verifies Stop's drain under -race: writers
// enqueue without waiting and Stop lands while the queue still holds
// work. Every accepted transaction ends up in exactly one block — nothing
// is left pending — and submissions after Stop are refused with
// ErrStopped.
func TestBatchTimerStopDrains(t *testing.T) {
	svc := New(Config{OrdererCount: 1, BatchSize: 100, Seed: 5})

	const writers = 4
	const perWriter = 10
	waits := make([][]*Wait, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				waits[w] = append(waits[w], svc.SubmitAsync(tx(fmt.Sprintf("s%d-%d", w, i))))
			}
		}(w)
	}
	wg.Wait()
	svc.Stop() // drains the queue and cuts everything it ordered

	for _, ws := range waits {
		for _, w := range ws {
			if err := w.Wait(); err != nil {
				t.Fatalf("submit enqueued before Stop: %v", err)
			}
		}
	}
	// Every submitted transaction is in exactly one block.
	seen := make(map[string]int)
	var total int
	for _, b := range mustDeliver(t, svc, 0) {
		total += len(b.Transactions)
		for _, tr := range b.Transactions {
			seen[tr.TxID]++
		}
	}
	if total != writers*perWriter {
		t.Fatalf("ordered %d transactions, want %d", total, writers*perWriter)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("tx %s ordered %d times", id, n)
		}
	}
	if err := svc.Submit(tx("after-stop")); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after Stop: err = %v, want ErrStopped", err)
	}
}

// TestConcurrentSubmitWithTimeoutArmed races many synchronous submitters
// against each other under -race: whether the size trigger or a dry
// queue cuts each block, no transaction may be lost or duplicated once
// the dust settles.
func TestConcurrentSubmitWithTimeoutArmed(t *testing.T) {
	svc := New(Config{OrdererCount: 3, BatchSize: 5, Seed: 11})

	const writers = 8
	const perWriter = 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := svc.Submit(tx(fmt.Sprintf("c%d-%d", w, i))); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	svc.Stop()

	seen := make(map[string]bool)
	for _, b := range mustDeliver(t, svc, 0) {
		for _, tr := range b.Transactions {
			if seen[tr.TxID] {
				t.Fatalf("tx %s appears in two blocks", tr.TxID)
			}
			seen[tr.TxID] = true
		}
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("ordered %d distinct transactions, want %d", len(seen), writers*perWriter)
	}
}

// TestStopRacesInflightSubmits stops the service while submitters are
// mid-flight: each Submit must either succeed — and then its transaction
// appears in exactly one delivered block — or fail with ErrStopped and
// never be ordered.
func TestStopRacesInflightSubmits(t *testing.T) {
	svc := New(Config{OrdererCount: 1, BatchSize: 3, Seed: 13})

	const writers = 6
	const perWriter = 20
	var mu sync.Mutex
	accepted := make(map[string]bool)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("r%d-%d", w, i)
				err := svc.Submit(tx(id))
				switch {
				case err == nil:
					mu.Lock()
					accepted[id] = true
					mu.Unlock()
				case errors.Is(err, ErrStopped):
					return
				default:
					t.Errorf("submit %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	go svc.Stop()
	wg.Wait()
	svc.Stop() // idempotent; ensures the drain finished before we inspect

	ordered := make(map[string]int)
	for _, b := range mustDeliver(t, svc, 0) {
		for _, tr := range b.Transactions {
			ordered[tr.TxID]++
		}
	}
	for id := range accepted {
		if ordered[id] != 1 {
			t.Fatalf("accepted tx %s ordered %d times", id, ordered[id])
		}
	}
	for id, n := range ordered {
		if n != 1 {
			t.Fatalf("tx %s ordered %d times", id, n)
		}
	}
}

// TestSlowPeerDoesNotStallFastPeer is the backpressure contract: with
// per-peer delivery queues, a peer whose handler blocks on block 0 must
// not delay a fast peer's receipt of later blocks, and once unblocked it
// still receives every block in order.
func TestSlowPeerDoesNotStallFastPeer(t *testing.T) {
	const blocks = 6
	svc := New(Config{OrdererCount: 1, BatchSize: 1, Seed: 17, DeliveryQueueBound: blocks + 1})

	gate := make(chan struct{}) // closed to release the slow peer
	var slowMu sync.Mutex
	var slowSeen []uint64
	svc.RegisterDelivery(func(b *ledger.Block) {
		<-gate
		slowMu.Lock()
		slowSeen = append(slowSeen, b.Header.Number)
		slowMu.Unlock()
	})

	fastDone := make(chan struct{})
	var fastMu sync.Mutex
	var fastSeen []uint64
	svc.RegisterDelivery(func(b *ledger.Block) {
		fastMu.Lock()
		fastSeen = append(fastSeen, b.Header.Number)
		if len(fastSeen) == blocks {
			close(fastDone)
		}
		fastMu.Unlock()
	})

	// Async submits: a synchronous Submit would wait for the gated slow
	// peer. The fast peer must see all blocks while the slow one is stuck.
	for i := 0; i < blocks; i++ {
		w := svc.SubmitAsync(tx(fmt.Sprintf("bp%d", i)))
		<-w.Done()
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-fastDone:
	case <-time.After(5 * time.Second):
		t.Fatal("fast peer stalled behind the slow peer")
	}
	slowMu.Lock()
	stuck := len(slowSeen)
	slowMu.Unlock()
	if stuck != 0 {
		t.Fatalf("slow peer processed %d blocks while gated", stuck)
	}

	close(gate)
	svc.Stop() // joins the delivery goroutines: backlogs fully drained

	fastMu.Lock()
	defer fastMu.Unlock()
	slowMu.Lock()
	defer slowMu.Unlock()
	for _, seen := range [][]uint64{fastSeen, slowSeen} {
		if len(seen) != blocks {
			t.Fatalf("peer saw %d blocks, want %d", len(seen), blocks)
		}
		for i, n := range seen {
			if n != uint64(i) {
				t.Fatalf("peer saw block %d at position %d", n, i)
			}
		}
	}
}

// TestConcurrentSubmitAndSubscribe exercises the backlog-then-register
// atomicity of Subscribe under -race: subscribers that register while
// writers are cutting blocks must observe every block exactly once, in
// order, with no gap between the returned backlog and the live handler.
func TestConcurrentSubmitAndSubscribe(t *testing.T) {
	svc := New(Config{OrdererCount: 1, BatchSize: 1, Seed: 7})

	const writers = 4
	const perWriter = 8
	const subscribers = 6

	type stream struct {
		mu   sync.Mutex
		nums []uint64
	}
	streams := make([]*stream, subscribers)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := svc.Submit(tx(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < subscribers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st := &stream{}
			streams[s] = st
			backlog, _ := svc.Subscribe(func(b *ledger.Block) {
				st.mu.Lock()
				defer st.mu.Unlock()
				st.nums = append(st.nums, b.Header.Number)
			})
			st.mu.Lock()
			defer st.mu.Unlock()
			pre := make([]uint64, 0, len(backlog))
			for _, b := range backlog {
				pre = append(pre, b.Header.Number)
			}
			st.nums = append(pre, st.nums...)
		}(s)
	}
	wg.Wait()

	want := uint64(writers * perWriter)
	if svc.Height() != want {
		t.Fatalf("height = %d, want %d", svc.Height(), want)
	}
	for s, st := range streams {
		if uint64(len(st.nums)) != want {
			t.Fatalf("subscriber %d saw %d blocks, want %d", s, len(st.nums), want)
		}
		for i, n := range st.nums {
			if n != uint64(i) {
				t.Fatalf("subscriber %d: position %d holds block %d", s, i, n)
			}
		}
	}
}

// mustDeliver unwraps Deliver for tests that read the full retained
// chain (unbounded retention: never compacted).
func mustDeliver(t *testing.T, svc *Service, from uint64) []*ledger.Block {
	t.Helper()
	blocks, err := svc.Deliver(from)
	if err != nil {
		t.Fatalf("Deliver(%d): %v", from, err)
	}
	return blocks
}
