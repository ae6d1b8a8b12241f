package network

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/peer"
	"repro/internal/storage/durable"
)

// mkDurablePeer builds an org2 peer on the durable backend rooted at
// dir, approved for the test network's "asset" definition. Each call
// builds a fresh peer object; calling it twice over the same dir
// models a process restart.
func mkDurablePeer(t *testing.T, n *Network, dir, name string) *peer.Peer {
	t.Helper()
	id, err := n.CA("org2").Issue(name, "peer")
	if err != nil {
		t.Fatal(err)
	}
	sec := core.OriginalFabric()
	sec.StorageBackend = "durable"
	sec.StorageDir = dir
	p, err := peer.New(peer.Config{
		Identity: id,
		Channel:  n.Channel,
		Gossip:   n.Gossip,
		Security: sec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ApproveDefinition(n.Peer("org2").Definition("asset")); err != nil {
		t.Fatal(err)
	}
	return p
}

// reconcileAll drives the anti-entropy reconciler until the peer has no
// missing private entries left (or gives up after a bounded number of
// ticks) so state hashes compare the healed state.
func reconcileAll(t testing.TB, p *peer.Peer) {
	t.Helper()
	for i := 0; i < 32; i++ {
		if len(p.Validator().Missing()) == 0 {
			return
		}
		p.TickReconcile()
	}
	if missing := p.Validator().Missing(); len(missing) != 0 {
		t.Fatalf("%s still missing %d private entries after reconciliation", p.Name(), len(missing))
	}
}

// TestCrashMidCommitRecovery kills a peer's state log mid-commit (block
// durable, state flush failed — the crash window docs/STORAGE.md §7 is
// specified against), reopens the directory with a fresh peer, and
// checks the recovered world state is byte-identical to a peer that
// never crashed.
func TestCrashMidCommitRecovery(t *testing.T) {
	n := newTestNet(t)
	crashDir, refDir := t.TempDir(), t.TempDir()

	crash := mkDurablePeer(t, n, crashDir, "peer7.org2")
	ref := mkDurablePeer(t, n, refDir, "peer8.org2")

	var mu sync.Mutex
	var crashErrs []error
	n.Orderer.RegisterDelivery(func(b *ledger.Block) {
		mu.Lock()
		defer mu.Unlock()
		crashErrs = append(crashErrs, crash.CommitBlock(b))
		_ = ref.CommitBlock(b)
	})

	cl := n.Gateway("org1")
	if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"a", "1"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org2")},
		"asset", "setPrivate", []string{"k1", "12"}, nil); err != nil {
		t.Fatal(err)
	}

	// The disk dies under the crash peer: every state-log append from
	// here on fails, so blocks append durably but their state batches
	// never land — exactly the torn window recovery must close.
	boom := errors.New("injected disk failure")
	crash.Backend().(*durable.Backend).InjectStateFailure(boom)

	if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"b", "2"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"a", "3"}, nil); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	var sawFailure bool
	for _, err := range crashErrs {
		if errors.Is(err, boom) {
			sawFailure = true
		}
	}
	mu.Unlock()
	if !sawFailure {
		t.Fatal("no CommitBlock surfaced the injected storage failure")
	}

	// "Restart": abandon the broken peer object without Close and bring
	// up a new one over the same directory.
	reopened := mkDurablePeer(t, n, crashDir, "peer7.org2")
	if err := reopened.Restore(); err != nil {
		t.Fatalf("restore after crash: %v", err)
	}
	defer reopened.Close()
	defer ref.Close()

	if got, want := reopened.Ledger().Height(), ref.Ledger().Height(); got != want {
		t.Fatalf("recovered height = %d, want %d", got, want)
	}
	reconcileAll(t, reopened)
	reconcileAll(t, ref)
	if got, want := reopened.WorldState().StateHash(), ref.WorldState().StateHash(); !bytes.Equal(got, want) {
		t.Fatalf("recovered state hash differs from uninterrupted peer:\n got %x\nwant %x", got, want)
	}
	if reopened.Ledger().VerifyChain() != -1 {
		t.Fatal("recovered chain broken")
	}

	// The recovered peer is fully live: it commits the next block and
	// stays in lockstep with the reference.
	n.Orderer.RegisterDelivery(func(b *ledger.Block) {
		mu.Lock()
		defer mu.Unlock()
		if err := reopened.CommitBlock(b); err != nil {
			t.Errorf("recovered peer commit: %v", err)
		}
	})
	if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"c", "4"}, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got, want := reopened.Ledger().Height(), ref.Ledger().Height(); got != want {
		t.Fatalf("post-recovery height = %d, want %d", got, want)
	}
	if !bytes.Equal(reopened.WorldState().StateHash(), ref.WorldState().StateHash()) {
		t.Fatal("post-recovery state hash diverged")
	}
}

// TestTornStateLogTailRecovery truncates the durable state log
// mid-record — the torn tail a power loss leaves behind — and checks
// reopening repairs it: the torn batch is dropped, the watermark falls
// back, and replaying the affected blocks reproduces the exact state.
func TestTornStateLogTailRecovery(t *testing.T) {
	n := newTestNet(t)
	dir := t.TempDir()

	p := mkDurablePeer(t, n, dir, "peer7.org2")
	n.Orderer.RegisterDelivery(func(b *ledger.Block) { _ = p.CommitBlock(b) })

	cl := n.Gateway("org1")
	if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"a", "1"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"b", "2"}, nil); err != nil {
		t.Fatal(err)
	}
	want := p.WorldState().StateHash()
	height := p.Ledger().Height()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last state record: chop a few bytes off the tail of the
	// newest state segment, as an interrupted write would.
	stateDir := filepath.Join(dir, "peer7.org2", "state")
	segs, err := filepath.Glob(filepath.Join(stateDir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("state segments: %v (%d found)", err, len(segs))
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	reopened := mkDurablePeer(t, n, dir, "peer7.org2")
	defer reopened.Close()
	if err := reopened.Restore(); err != nil {
		t.Fatalf("restore after torn tail: %v", err)
	}
	if got := reopened.Ledger().Height(); got != height {
		t.Fatalf("recovered height = %d, want %d", got, height)
	}
	if got := reopened.WorldState().StateHash(); !bytes.Equal(got, want) {
		t.Fatalf("recovered state hash differs after torn-tail repair:\n got %x\nwant %x", got, want)
	}
}
