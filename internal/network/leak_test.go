package network

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/peer"
)

// TestPrivateValueInBlockBytes is the paper's §IV-B leak read off raw
// bytes: a member reads a private value through readPrivate, whose
// Response payload lands in the block (Fig. 3). Undefended, the
// non-member org3 holds the value verbatim both in its committed blocks
// and in its blocks log on disk. With hashed-payload endorsement
// (Feature 2) no peer's blocks or blocks log contain it, while the
// reading client still gets it back.
func TestPrivateValueInBlockBytes(t *testing.T) {
	const secret = "904817263551" // integer, as the PDC contract requires
	for _, c := range []struct {
		name   string
		hashed bool
	}{{"undefended", false}, {"hashed payload", true}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			sec := core.OriginalFabric()
			sec.HashedPayloadEndorsement = c.hashed
			sec.StorageBackend = "durable"
			sec.StorageDir = dir
			sec.StorageNoFsync = true
			n, err := New(Options{Orgs: []string{"org1", "org2", "org3"}, Seed: 42, Security: sec})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if err := n.DeployChaincode(testDefWithBTL(0), testPDCImpl()); err != nil {
				t.Fatal(err)
			}
			cl := n.Gateway("org1")
			members := []*peer.Peer{n.Peer("org1"), n.Peer("org2")}
			res, err := submitTx(cl, members, "asset", "setPrivateTransient", []string{"k"},
				map[string][]byte{"value": []byte(secret)})
			if err != nil || res.Code != ledger.Valid {
				t.Fatalf("private write: %v %v", res, err)
			}
			res, err = submitTx(cl, members, "asset", "readPrivate", []string{"k"}, nil)
			if err != nil || res.Code != ledger.Valid {
				t.Fatalf("private read: %v %v", res, err)
			}
			if string(res.Payload) != secret {
				t.Fatalf("reading client got %q, want the private value", res.Payload)
			}

			for _, p := range n.Peers() {
				inBlocks, inLog := holdsValue(t, p, dir, secret)
				switch {
				case c.hashed && (inBlocks || inLog):
					t.Errorf("%s: value in blocks=%v, in blocks log=%v despite Feature 2", p.Name(), inBlocks, inLog)
				case !c.hashed && p.Org() == "org3" && !(inBlocks && inLog):
					t.Errorf("non-member %s: value in blocks=%v, in blocks log=%v; the undefended leak must show in both",
						p.Name(), inBlocks, inLog)
				}
			}
		})
	}
}

// holdsValue reports whether value occurs verbatim in p's committed
// blocks and in its blocks log under the network's storage root.
func holdsValue(t *testing.T, p *peer.Peer, root, value string) (inBlocks, inLog bool) {
	t.Helper()
	for i := uint64(0); i < p.Ledger().Height(); i++ {
		b, err := p.Ledger().Block(i)
		if err != nil {
			t.Fatal(err)
		}
		inBlocks = inBlocks || bytes.Contains(ledger.AppendBlock(nil, b), []byte(value))
	}
	segs, err := filepath.Glob(filepath.Join(root, p.Name(), "blocks", "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("%s: no blocks log (%v)", p.Name(), err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		inLog = inLog || bytes.Contains(raw, []byte(value))
	}
	return inBlocks, inLog
}
