package node

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/contracts"
	"repro/internal/deliver"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/network"
	"repro/internal/service"
)

// blockStream is a service.Stream replaying a fixed list of blocks.
type blockStream struct{ ch chan deliver.Event }

func newBlockStream(blocks ...*ledger.Block) *blockStream {
	ch := make(chan deliver.Event, len(blocks))
	for _, b := range blocks {
		ch <- &deliver.BlockEvent{Block: b}
	}
	close(ch)
	return &blockStream{ch: ch}
}

func (s *blockStream) Events() <-chan deliver.Event { return s.ch }
func (s *blockStream) Err() error                   { return nil }
func (s *blockStream) Close()                       {}

// pumpFixture is a one-org peer at height 1 plus a valid endorsed
// transaction that has not been ordered, for building foreign blocks.
func pumpFixture(t *testing.T) (*Node, *ledger.Transaction) {
	t.Helper()
	n, err := network.New(network.Options{Orgs: []string{"org1"}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if err := n.DeployChaincode(&chaincode.Definition{Name: "asset", Version: "1.0"}, contracts.NewPublicAsset()); err != nil {
		t.Fatal(err)
	}
	gw := n.Gateway("org1")
	contract := gw.Network("c1").Contract("asset")
	if res, err := contract.Submit(context.Background(), "set", gateway.WithArguments("k", "ordered")); err != nil || res.Code != ledger.Valid {
		t.Fatalf("submit: %v %v", res, err)
	}
	prop, err := gw.NewProposal("asset", "set", []string{"k", "forked"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, _, err := gw.EndorseProposal(context.Background(), prop, service.AsEndorsers(n.Peers()))
	if err != nil {
		t.Fatal(err)
	}
	return &Node{Peer: n.Peer("org1")}, tx
}

// TestPumpBlocksDetectsFork: a block below the peer's height, or at it
// with a foreign PrevHash, is another chain. pumpBlocks returns
// ErrForked and leaves the peer's height and state untouched, even
// though the block's transaction would validate.
func TestPumpBlocksDetectsFork(t *testing.T) {
	node, tx := pumpFixture(t)
	p := node.Peer
	height, state := p.Ledger().Height(), p.WorldState().StateHash()
	forks := map[string]*ledger.Block{
		"below height":     ledger.NewBlock(0, nil, []*ledger.Transaction{tx}),
		"foreign PrevHash": ledger.NewBlock(height, []byte("another chain"), []*ledger.Transaction{tx}),
	}
	for name, b := range forks {
		err := node.pumpBlocks(context.Background(), newBlockStream(b))
		if !errors.Is(err, ledger.ErrForked) {
			t.Fatalf("%s: err = %v, want ErrForked", name, err)
		}
		if got := p.Ledger().Height(); got != height {
			t.Fatalf("%s: height %d -> %d", name, height, got)
		}
		if !bytes.Equal(p.WorldState().StateHash(), state) {
			t.Fatalf("%s: state hash changed", name)
		}
	}
}

// TestPumpBlocksReturnsCommitError: a block that links but fails to
// commit, or one that skips the peer's height, is returned as an error
// — not logged and skipped — with the peer untouched and the rest of
// the stream not attempted; the caller resubscribes from the height.
func TestPumpBlocksReturnsCommitError(t *testing.T) {
	node, tx := pumpFixture(t)
	p := node.Peer
	height, state := p.Ledger().Height(), p.WorldState().StateHash()
	good := ledger.NewBlock(height, p.Ledger().LastHash(), []*ledger.Transaction{tx})
	tampered := ledger.NewBlock(height, p.Ledger().LastHash(), nil)
	tampered.Header.DataHash = []byte("tampered")
	bad := map[string]*ledger.Block{
		"data hash": tampered,
		"gap":       ledger.NewBlock(height+1, good.Hash(), []*ledger.Transaction{tx}),
	}
	for name, b := range bad {
		err := node.pumpBlocks(context.Background(), newBlockStream(b, good))
		if err == nil || errors.Is(err, ledger.ErrForked) {
			t.Fatalf("%s: err = %v, want a commit error", name, err)
		}
		if got := p.Ledger().Height(); got != height {
			t.Fatalf("%s: height %d -> %d", name, height, got)
		}
		if !bytes.Equal(p.WorldState().StateHash(), state) {
			t.Fatalf("%s: state hash changed", name)
		}
	}
	// A stream that simply ends is not an error.
	if err := node.pumpBlocks(context.Background(), newBlockStream(good)); err != nil {
		t.Fatalf("committing the good block: %v", err)
	}
	if got := p.Ledger().Height(); got != height+1 {
		t.Fatalf("height = %d, want %d", got, height+1)
	}
}
