package network

import (
	"testing"

	"repro/internal/ledger"
	"repro/internal/peer"
)

// TestPeerRestartFromDisk runs transactions against a durable peer,
// drops it, recreates it over the same directory and checks the replayed
// state — world state, private data hashes and blockchain — matches.
func TestPeerRestartFromDisk(t *testing.T) {
	n := newTestNet(t)
	dir := t.TempDir()

	// A durable org2 peer joins (via manual construction to control
	// the storage dir), approved like the network's own org2 peer.
	durable := mkDurablePeer(t, n, dir, "peer7.org2")
	n.Orderer.RegisterDelivery(func(b *ledger.Block) { _ = durable.CommitBlock(b) })

	cl := n.Gateway("org1")
	if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"a", "1"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org2")},
		"asset", "setPrivate", []string{"k1", "12"}, nil); err != nil {
		t.Fatal(err)
	}
	if durable.Ledger().Height() != 2 {
		t.Fatalf("durable height = %d", durable.Ledger().Height())
	}

	// "Restart": a brand-new peer object over the same directory.
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := mkDurablePeer(t, n, dir, "peer7.org2")
	defer restarted.Close()
	if err := restarted.Restore(); err != nil {
		t.Fatal(err)
	}
	if restarted.Ledger().Height() != 2 {
		t.Fatalf("restored height = %d", restarted.Ledger().Height())
	}
	if v, ver, _ := restarted.WorldState().Get("asset", "a"); string(v) != "1" || ver != 1 {
		t.Fatalf("restored public state = %q v%d", v, ver)
	}
	// The hashed private entry is rebuilt; the original came from the
	// replayed transient/gossip path or is tracked missing.
	if _, ver, ok := restarted.PvtStore().GetPrivateHash("asset", "pdc1", "k1"); !ok || ver != 1 {
		t.Fatalf("restored private hash: ok=%v ver=%d", ok, ver)
	}
	if restarted.Ledger().VerifyChain() != -1 {
		t.Fatal("restored chain broken")
	}
}
