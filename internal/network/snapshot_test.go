package network

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/peer"
	"repro/internal/pvtdata"
	"repro/internal/snapshot"
	"repro/internal/storage"
)

// newSnapshotNet is newTestNet with BlockToLive on the collection, so
// commits leave a pending purge schedule for snapshots to carry.
func newSnapshotNet(t testing.TB) *Network {
	t.Helper()
	n, err := New(Options{
		Orgs: []string{"org1", "org2", "org3"},
		Seed: 43,
	})
	if err != nil {
		t.Fatalf("build network: %v", err)
	}
	def := &chaincode.Definition{
		Name:    "asset",
		Version: "1.0",
		Collections: []pvtdata.CollectionConfig{{
			Name:         "pdc1",
			MemberPolicy: "OR(org1.member, org2.member)",
			MaxPeerCount: 3,
			BlockToLive:  1000, // schedules far-future purges
		}},
	}
	if err := n.DeployChaincode(def, testPDCImpl()); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return n
}

// org2Setup approves the asset definition and installs the org2
// chaincode variant on a joining peer.
func org2Setup(n *Network) func(*peer.Peer) error {
	return func(p *peer.Peer) error {
		if err := p.ApproveDefinition(n.Peer("org2").Definition("asset")); err != nil {
			return err
		}
		p.InstallChaincode("asset", testPDCImpl())
		return nil
	}
}

// buildHistory commits a mix of public writes, private writes, and
// deletes, leaving live keys, tombstones and a pending purge schedule.
// The private delete is optional: a deleted private payload is gone
// network-wide, so a peer later replaying from genesis can never heal
// it — tests that compare a replay-joined peer byte-for-byte must
// delete privately only while every peer is live.
func buildHistory(t testing.TB, n *Network, withPrivateDelete bool) {
	t.Helper()
	cl := n.Gateway("org1")
	members := []*peer.Peer{n.Peer("org1"), n.Peer("org2")}
	steps := []struct {
		endorsers []*peer.Peer
		fn        string
		args      []string
	}{
		{n.Peers(), "set", []string{"a", "1"}},
		{n.Peers(), "set", []string{"b", "2"}},
		{members, "setPrivate", []string{"k1", "12"}},
		{members, "setPrivate", []string{"k2", "13"}},
		{n.Peers(), "del", []string{"b"}},
		{n.Peers(), "set", []string{"c", "3"}},
	}
	if withPrivateDelete {
		steps = append(steps, struct {
			endorsers []*peer.Peer
			fn        string
			args      []string
		}{members, "delPrivate", []string{"k1", "12"}})
	}
	for _, s := range steps {
		if _, err := submitTx(cl, s.endorsers, "asset", s.fn, s.args, nil); err != nil {
			t.Fatalf("%s%v: %v", s.fn, s.args, err)
		}
	}
}

func TestSnapshotJoinMatchesReplayJoin(t *testing.T) {
	n := newSnapshotNet(t)
	buildHistory(t, n, false)
	source := n.Peer("org2")

	dir := filepath.Join(t.TempDir(), "snap")
	m, err := source.ExportSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Height != source.Ledger().Height() {
		t.Fatalf("manifest height %d, source height %d", m.Height, source.Ledger().Height())
	}
	if m.Counts.Purges == 0 {
		t.Fatal("no purge schedule in the snapshot despite BlockToLive")
	}
	if m.Counts.Tombstones == 0 {
		t.Fatal("no tombstones in the snapshot despite deletes")
	}

	// One peer joins the classic way (genesis replay), one via the
	// snapshot.
	replayJoined, err := n.JoinPeer("org2", "peer8.org2", org2Setup(n))
	if err != nil {
		t.Fatal(err)
	}
	snapJoined, err := n.JoinPeerFromSnapshot("org2", "peer9.org2", dir, source, org2Setup(n))
	if err != nil {
		t.Fatal(err)
	}
	if got := snapJoined.Ledger().Base(); got != m.Height {
		t.Fatalf("snapshot-joined peer chain base = %d, want %d", got, m.Height)
	}

	// Both joiners stay live: a post-join public write commits
	// everywhere, and a live private delete lands a tombstone on top of
	// the snapshot-installed value at the snapshot-joined peer.
	if _, err := submitTx(n.Gateway("org1"), n.Peers(), "asset", "set", []string{"d", "4"}, nil); err != nil {
		t.Fatal(err)
	}
	members := []*peer.Peer{n.Peer("org1"), snapJoined}
	if _, err := submitTx(n.Gateway("org1"), members, "asset", "delPrivate", []string{"k1", "12"}, nil); err != nil {
		t.Fatal(err)
	}

	reconcileAll(t, source)
	reconcileAll(t, replayJoined)
	reconcileAll(t, snapJoined)
	if got := len(snapJoined.Validator().Missing()); got != 0 {
		t.Fatalf("snapshot-joined peer has %d missing entries, want 0", got)
	}

	want := source.WorldState().StateHash()
	if got := snapJoined.WorldState().StateHash(); !bytes.Equal(got, want) {
		t.Fatalf("snapshot-joined state hash differs from source:\n got %x\nwant %x", got, want)
	}
	if got := replayJoined.WorldState().StateHash(); !bytes.Equal(got, want) {
		t.Fatalf("replay-joined state hash differs from source:\n got %x\nwant %x", got, want)
	}
	if got, want := snapJoined.Ledger().Height(), source.Ledger().Height(); got != want {
		t.Fatalf("snapshot-joined height = %d, want %d", got, want)
	}
	if snapJoined.Ledger().VerifyChain() != -1 {
		t.Fatal("snapshot-joined chain fails verification")
	}

	// Private store contents came across: both the live key and the
	// purge schedule.
	if v, _, ok := snapJoined.PvtStore().GetPrivate("asset", "pdc1", "k2"); !ok || string(v) != "13" {
		t.Fatalf("private k2 at snapshot-joined peer = %q, %v", v, ok)
	}
	if _, _, ok := snapJoined.PvtStore().GetPrivate("asset", "pdc1", "k1"); ok {
		t.Fatal("deleted private k1 resurrected by snapshot install")
	}
	if got, want := snapJoined.PvtStore().PendingPurges(), source.PvtStore().PendingPurges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("purge schedule mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestInstallCorruptSnapshotRetries covers the integrity contract: a
// truncated chunk, a bit-flipped chunk, and a tampered manifest must
// each fail InstallSnapshot with storage.ErrCorrupt while leaving both
// the peer and the artifact directory untouched — undoing the
// corruption makes the same install succeed on the same peer object.
func TestInstallCorruptSnapshotRetries(t *testing.T) {
	n := newSnapshotNet(t)
	buildHistory(t, n, true)
	source := n.Peer("org2")
	dir := filepath.Join(t.TempDir(), "snap")
	m, err := source.ExportSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := filepath.Glob(filepath.Join(dir, "chunk-*.snap"))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no chunks: %v", err)
	}

	corruptions := []struct {
		name string
		file string
		mut  func([]byte) []byte
	}{
		{"truncated chunk", chunks[0], func(b []byte) []byte { return b[:len(b)-5] }},
		{"bit-flipped chunk", chunks[0], func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }},
		{"tampered manifest", filepath.Join(dir, snapshot.ManifestName), func(b []byte) []byte {
			// Editing the recorded height breaks the manifest self-hash.
			return bytes.Replace(b,
				[]byte(fmt.Sprintf(`"height": %d`, m.Height)),
				[]byte(fmt.Sprintf(`"height": %d`, m.Height+1)), 1)
		}},
	}
	for i, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			id, err := n.CA("org2").Issue(fmt.Sprintf("peer-corrupt%d.org2", i), "peer")
			if err != nil {
				t.Fatal(err)
			}
			p, err := peer.New(peer.Config{Identity: id, Channel: n.Channel, Gossip: n.Gossip})
			if err != nil {
				t.Fatal(err)
			}
			if err := org2Setup(n)(p); err != nil {
				t.Fatal(err)
			}

			orig, err := os.ReadFile(c.file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.file, c.mut(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := p.InstallSnapshot(dir); !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("install of corrupted artifact: err = %v, want storage.ErrCorrupt", err)
			}
			if h := p.Ledger().Height(); h != 0 {
				t.Fatalf("failed install mutated the peer (height %d)", h)
			}

			// Undo the corruption (the artifact dir was never mutated by
			// the failed install) and retry on the SAME peer object.
			if err := os.WriteFile(c.file, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := p.InstallSnapshot(dir); err != nil {
				t.Fatalf("retry after undoing corruption: %v", err)
			}
		})
	}
}

// TestKillMidInstallRecovery models a crash in the install window
// between the durable chain-base install and the snapshot's state
// batch: Restore over the half-installed backend must refuse with
// storage.ErrCorrupt (the gap cannot be replayed — the peer never had
// those blocks), and repeating the install over a fresh backend, then
// restarting over it, reproduces the exporter's state byte for byte.
// The durable sibling of this test is TestCrashMidCommitRecovery.
func TestKillMidInstallRecovery(t *testing.T) {
	n := newSnapshotNet(t)
	buildHistory(t, n, true)
	source := n.Peer("org2")
	dir := filepath.Join(t.TempDir(), "snap")
	m, err := source.ExportSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	lastHash, err := m.LastBlockHashBytes()
	if err != nil {
		t.Fatal(err)
	}

	mkPeer := func(name string, backend storage.Backend) *peer.Peer {
		id, err := n.CA("org2").Issue(name, "peer")
		if err != nil {
			t.Fatal(err)
		}
		p, err := peer.New(peer.Config{Identity: id, Channel: n.Channel, Gossip: n.Gossip, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if err := org2Setup(n)(p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Simulate the crash: the chain base landed durably, the state batch
	// did not (the install's two durable steps, torn between).
	halfInstalled := storage.NewMemory()
	if err := halfInstalled.Blocks().(storage.BaseBlockStore).InstallBase(m.Height, lastHash); err != nil {
		t.Fatal(err)
	}
	p := mkPeer("peer-killed.org2", halfInstalled)
	if err := p.Restore(); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("restore over half-installed backend: err = %v, want storage.ErrCorrupt", err)
	}

	// Recovery procedure: wipe and re-install. The artifact directory is
	// untouched, so the same files drive the retry.
	backend := storage.NewMemory()
	installed := mkPeer("peer-retry.org2", backend)
	if err := installed.InstallSnapshot(dir); err != nil {
		t.Fatalf("re-install after wipe: %v", err)
	}
	want := installed.WorldState().StateHash()

	// Restart over the installed backend: state, purge schedule and
	// chain base all come back.
	reopened := mkPeer("peer-retry.org2", backend)
	if err := reopened.Restore(); err != nil {
		t.Fatalf("restore after snapshot install: %v", err)
	}
	if got := reopened.WorldState().StateHash(); !bytes.Equal(got, want) {
		t.Fatalf("restored state hash differs:\n got %x\nwant %x", got, want)
	}
	if got := reopened.Ledger().Base(); got != m.Height {
		t.Fatalf("restored chain base = %d, want %d", got, m.Height)
	}
	if got, want := reopened.PvtStore().PendingPurges(), source.PvtStore().PendingPurges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored purge schedule mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// joinChainBlocks is how many public blocks BenchmarkJoin commits on top
// of buildHistory, so replay cost is set by the chain's length as it is
// for a real late joiner. It stays below the collection's BlockToLive:
// past it the members have purged the history's private writes, and a
// replaying joiner records them missing with no one left to serve them.
const joinChainBlocks = 500

// BenchmarkJoin prices the two cold-join paths on one chain. "replay"
// commits every block from genesis, then reconciles the private data it
// was never pushed; "snapshot" exports the source's state and installs
// it on a fresh peer. Every iteration checks that the joiner's state
// hash equals the source's, so the ratio of the two ns/op figures is
// the speed-up of docs/SNAPSHOT.md.
func BenchmarkJoin(b *testing.B) {
	n := newSnapshotNet(b)
	buildHistory(b, n, false)
	for i := 0; i < joinChainBlocks; i++ {
		if _, err := submitTx(n.Gateway("org1"), n.Peers(), "asset", "set", []string{fmt.Sprintf("h%d", i), "v"}, nil); err != nil {
			b.Fatal(err)
		}
	}
	source := n.Peer("org2")
	want := source.WorldState().StateHash()
	dir := b.TempDir()
	joined := 0
	check := func(b *testing.B, p *peer.Peer) {
		if got := p.WorldState().StateHash(); !bytes.Equal(got, want) {
			b.Fatalf("%s state hash differs from source:\n got %x\nwant %x", p.Name(), got, want)
		}
	}

	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			joined++
			p, err := n.JoinPeer("org2", fmt.Sprintf("replay%d.org2", joined), org2Setup(n))
			if err != nil {
				b.Fatal(err)
			}
			reconcileAll(b, p)
			check(b, p)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			joined++
			snap := filepath.Join(dir, fmt.Sprintf("snap%d", joined))
			if _, err := source.ExportSnapshot(snap); err != nil {
				b.Fatal(err)
			}
			p, err := n.JoinPeerFromSnapshot("org2", fmt.Sprintf("snap%d.org2", joined), snap, source, org2Setup(n))
			if err != nil {
				b.Fatal(err)
			}
			check(b, p)
		}
	})
}
