package wire

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/deliver"
	"repro/internal/ledger"
	"repro/internal/network"
	"repro/internal/orderer"
	"repro/internal/service"
)

// replayBlocks is well past the client's live headroom (streamBuffer).
const replayBlocks = 5000

// serveT starts a server with the registrations in reg and dials it.
func serveT(t *testing.T, reg func(*Server)) *Client {
	t.Helper()
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg(s)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return dialT(t, s, ClientOptions{})
}

// readSlowly reads nothing until the whole replay sits in the client's
// buffer (or the stream ended), then drains it and returns the block
// numbers it saw.
func readSlowly(t *testing.T, stream service.Stream, want int) []uint64 {
	t.Helper()
	es := stream.(*eventStream)
	deadline := time.Now().Add(30 * time.Second)
	for {
		es.mu.Lock()
		queued, closed := len(es.ch), es.closed
		es.mu.Unlock()
		if queued >= want || closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d replayed events arrived", queued, want)
		}
		time.Sleep(time.Millisecond)
	}
	var blocks []uint64
	for len(blocks) < want {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				t.Fatalf("stream ended after %d of %d blocks: %v", len(blocks), want, stream.Err())
			}
			if be, isBlock := ev.(*deliver.BlockEvent); isBlock {
				blocks = append(blocks, be.Block.Header.Number)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("stalled after %d of %d blocks", len(blocks), want)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream err: %v", err)
	}
	for i, n := range blocks {
		if n != uint64(i) {
			t.Fatalf("position %d holds block %d", i, n)
		}
	}
	return blocks
}

// TestOrderBlocksReplayOutlastsLiveBuffer: a consumer that asks for a
// long order.blocks backlog and does not read until all of it arrived
// receives every block; only live lag may evict it.
func TestOrderBlocksReplayOutlastsLiveBuffer(t *testing.T) {
	svc := orderer.New(orderer.Config{OrdererCount: 1, BatchSize: 1, Seed: 3})
	t.Cleanup(svc.Stop)
	waits := make([]*orderer.Wait, replayBlocks)
	for i := range waits {
		waits[i] = svc.SubmitAsync(&ledger.Transaction{TxID: fmt.Sprintf("r%d", i), ChannelID: "c1"})
	}
	for _, w := range waits {
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	c := serveT(t, func(s *Server) { RegisterOrderer(s, svc) })
	stream, err := NewOrdererClient(c).Blocks(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	readSlowly(t, stream, replayBlocks)
}

// TestPeerSubscribeReplayOutlastsLiveBuffer: the same for a
// peer.subscribe replay of a peer's committed chain.
func TestPeerSubscribeReplayOutlastsLiveBuffer(t *testing.T) {
	n, err := network.New(network.Options{Orgs: []string{"org1"}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	p := n.Peer("org1")
	for i := 0; i < replayBlocks; i++ {
		if err := p.CommitBlock(ledger.NewBlock(uint64(i), p.Ledger().LastHash(), nil)); err != nil {
			t.Fatal(err)
		}
	}
	c := serveT(t, func(s *Server) { RegisterPeer(s, p) })
	pc, err := NewPeerClient(c)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := pc.SubscribeFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	readSlowly(t, stream, replayBlocks)
}
