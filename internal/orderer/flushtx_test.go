package orderer

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/metrics"
)

func flushTestTx(id string) *ledger.Transaction {
	return &ledger.Transaction{
		TxID:            id,
		ChannelID:       "testchan",
		Proposal:        &ledger.Proposal{TxID: id, Chaincode: "cc", Function: "set"},
		ResponsePayload: []byte(`{"tx_id":"` + id + `"}`),
	}
}

// waitElided polls until orderer_flushes_elided reaches want.
func waitElided(t *testing.T, svc *Service, want uint64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for svc.Metrics()[metrics.OrdererFlushesElided] < want {
		select {
		case <-deadline:
			t.Fatalf("orderer_flushes_elided = %d, want %d", svc.Metrics()[metrics.OrdererFlushesElided], want)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestInPending: the orderer's pending-batch membership test, observed
// through FlushTx — a tx never submitted or already cut is not pending
// (the flush is elided), a tx in the partial batch is (the flush cuts it).
func TestInPending(t *testing.T) {
	blocks := make(chan *ledger.Block, 4)
	svc := New(Config{OrdererCount: 3, BatchSize: 100, Seed: 11})
	svc.RegisterDelivery(func(b *ledger.Block) { blocks <- b })
	defer svc.Stop()

	svc.FlushTx("tx-0") // before any submission
	waitElided(t, svc, 1)

	if err := svc.Submit(flushTestTx("tx-0")); err != nil {
		t.Fatal(err)
	}
	// BatchSize 100: the tx is ordered but sits in the partial batch.
	svc.FlushTx("tx-0")
	select {
	case b := <-blocks:
		if len(b.Transactions) != 1 || b.Transactions[0].TxID != "tx-0" {
			t.Fatalf("flushed block carries %d txs, want tx-0 alone", len(b.Transactions))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FlushTx of a tx in the partial batch cut no block")
	}
	if got := svc.Metrics()[metrics.OrdererFlushesElided]; got != 1 {
		t.Fatalf("orderer_flushes_elided = %d after flushing a pending tx, want 1", got)
	}

	svc.FlushTx("tx-0") // after the batch was cut
	waitElided(t, svc, 2)
	select {
	case b := <-blocks:
		t.Fatalf("flush of an already-cut tx cut block %d", b.Header.Number)
	default:
	}
}

// TestFlushTxCutsPendingBatch: a conditional flush for a pending tx cuts
// the whole partial batch — every pending transaction lands in one
// block, preserving batching for concurrent waiters.
func TestFlushTxCutsPendingBatch(t *testing.T) {
	blocks := make(chan *ledger.Block, 4)
	svc := New(Config{OrdererCount: 3, BatchSize: 100, Seed: 12})
	svc.RegisterDelivery(func(b *ledger.Block) { blocks <- b })
	defer svc.Stop()

	for i := 0; i < 3; i++ {
		if err := svc.Submit(flushTestTx(fmt.Sprintf("tx-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	svc.FlushTx("tx-1")
	select {
	case b := <-blocks:
		if len(b.Transactions) != 3 {
			t.Fatalf("flushed block carries %d txs, want all 3 pending", len(b.Transactions))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no block cut after FlushTx of a pending tx")
	}
}

// TestFlushTxElidedWhenNotPending: a conditional flush for a tx that
// already left the pending batch is dropped — no extra block is cut and
// the elision counter moves.
func TestFlushTxElidedWhenNotPending(t *testing.T) {
	blocks := make(chan *ledger.Block, 4)
	svc := New(Config{OrdererCount: 3, BatchSize: 1, Seed: 13})
	svc.RegisterDelivery(func(b *ledger.Block) { blocks <- b })
	defer svc.Stop()

	if err := svc.Submit(flushTestTx("tx-0")); err != nil {
		t.Fatal(err)
	}
	<-blocks // BatchSize 1: the tx was cut immediately

	svc.FlushTx("tx-0") // stale: the tx is already in a block
	waitElided(t, svc, 1)
	select {
	case b := <-blocks:
		t.Fatalf("elided flush still cut block %d", b.Header.Number)
	default:
	}
	if got := svc.Metrics()[metrics.OrdererFlushesElided]; got != 1 {
		t.Fatalf("orderer_flushes_elided = %d, want 1", got)
	}
}

// TestFlushTxAfterStop is a no-op, like Flush after Stop.
func TestFlushTxAfterStop(t *testing.T) {
	svc := New(Config{OrdererCount: 3, BatchSize: 10, Seed: 14})
	svc.RegisterDelivery(func(*ledger.Block) {})
	svc.Stop()
	svc.FlushTx("tx-0") // must not panic or deadlock
}
