package network

import (
	"testing"

	"repro/internal/chaincode"
	"repro/internal/contracts"
	"repro/internal/ledger"
	"repro/internal/peer"
	"repro/internal/pvtdata"
)

// testDefWithBTL is the test chaincode definition with a BlockToLive.
func testDefWithBTL(btl uint64) *chaincode.Definition {
	return &chaincode.Definition{
		Name:    "asset",
		Version: "1.0",
		Collections: []pvtdata.CollectionConfig{{
			Name:         "pdc1",
			MemberPolicy: "OR(org1.member, org2.member)",
			MaxPeerCount: 3,
			BlockToLive:  btl,
		}},
	}
}

// testPDCImpl merges the public asset contract with an unconstrained PDC
// contract.
func testPDCImpl() chaincode.Router {
	merged := contracts.NewPublicAsset()
	for name, fn := range contracts.NewPDC(contracts.PDCOptions{Collection: "pdc1"}) {
		merged[name] = fn
	}
	return merged
}

// order bypasses the client and pushes an assembled transaction straight
// to the orderer, as a malicious or buggy client could.
func order(t *testing.T, n *Network, tx *ledger.Transaction) ledger.ValidationCode {
	t.Helper()
	if err := n.Orderer.Submit(tx); err != nil {
		t.Fatalf("order: %v", err)
	}
	_, code, err := n.Peer("org1").Ledger().Transaction(tx.TxID)
	if err != nil {
		t.Fatalf("tx not in ledger: %v", err)
	}
	return code
}

func endorse(t *testing.T, n *Network, fn string, args []string) *ledger.Transaction {
	t.Helper()
	cl := n.Gateway("org1")
	prop, err := cl.NewProposal("asset", fn, args, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, _, err := endorseProp(cl, prop, n.Peers())
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTamperedResponsePayloadRejected(t *testing.T) {
	n := newTestNet(t)
	tx := endorse(t, n, "set", []string{"k", "1"})

	// Flip the agreed response payload after endorsement: every
	// signature check must fail.
	tx.ResponsePayload = append([]byte(nil), tx.ResponsePayload...)
	tx.ResponsePayload[len(tx.ResponsePayload)/2] ^= 1
	// Structurally it may no longer parse; either BadPayload or
	// BadSignature is a rejection.
	code := order(t, n, tx)
	if code == ledger.Valid {
		t.Fatalf("tampered payload marked valid")
	}
}

func TestForgedEndorsementSignatureRejected(t *testing.T) {
	n := newTestNet(t)
	tx := endorse(t, n, "set", []string{"k", "1"})
	tx.Endorsements[0].Signature[4] ^= 0x40
	if code := order(t, n, tx); code != ledger.BadSignature {
		t.Fatalf("code = %v, want BAD_SIGNATURE", code)
	}
}

func TestStrippedEndorsementsFailPolicy(t *testing.T) {
	n := newTestNet(t)
	tx := endorse(t, n, "set", []string{"k", "1"})
	tx.Endorsements = tx.Endorsements[:1] // 1 of 3 is no majority
	if code := order(t, n, tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("code = %v, want ENDORSEMENT_POLICY_FAILURE", code)
	}
}

func TestEndorsementFromUntrustedOrgRejected(t *testing.T) {
	n := newTestNet(t)
	tx := endorse(t, n, "set", []string{"k", "1"})

	// An identity from a CA outside the channel signs the payload.
	outsider, err := n.CA("org1").Issue("peer0.mallory", "peer")
	if err != nil {
		t.Fatal(err)
	}
	// Forge the certificate org so it is not validatable.
	cert := *outsider.Cert
	cert.Org = "mallory"
	sig, _ := outsider.Sign(tx.ResponsePayload)
	tx.Endorsements = append(tx.Endorsements, ledger.Endorsement{
		Endorser:  cert.Bytes(),
		Signature: sig,
	})
	if code := order(t, n, tx); code != ledger.BadSignature {
		t.Fatalf("code = %v, want BAD_SIGNATURE", code)
	}
}

func TestDuplicateEndorsementsDoNotInflatePolicy(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")
	prop, _ := cl.NewProposal("asset", "set", []string{"k", "1"}, nil)
	tx, _, err := endorseProp(cl, prop, []*peer.Peer{n.Peer("org1")})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate org1's endorsement three times: still only one org.
	tx.Endorsements = append(tx.Endorsements, tx.Endorsements[0], tx.Endorsements[0])
	if code := order(t, n, tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("code = %v, want ENDORSEMENT_POLICY_FAILURE", code)
	}
}

func TestGossipDropRecordsMissingPrivateData(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")

	// org2 loses gossip deliveries AND cannot reconcile (we endorse
	// only via org1, then purge org1's transient store by committing —
	// so use drop + a tx endorsed by org1 only won't pass MAJORITY...
	// instead endorse with both members but drop org2's deliveries;
	// org2 reconciles from org1's transient store, so to force a miss
	// we drop deliveries to org2 and take org1 offline for serving by
	// using the non-member org3 as the only other endorser).
	n.Gossip.DropDeliveries("peer0.org2", true)

	res, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org3")},
		"asset", "setPrivate", []string{"k1", "12"}, nil,
	)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Code != ledger.Valid {
		t.Fatalf("code = %v", res.Code)
	}

	// org2 reconciled from org1's transient store via gossip pull —
	// unless that is also unavailable. Either way the hashed write is
	// committed at org2.
	if _, _, ok := n.Peer("org2").PvtStore().GetPrivateHash("asset", "pdc1", "k1"); !ok {
		t.Fatal("hashed write missing at org2")
	}

	// With reconciliation available the value arrives; this asserts
	// the reconciliation path works under dropped deliveries.
	if v, _, ok := n.Peer("org2").PvtStore().GetPrivate("asset", "pdc1", "k1"); !ok || string(v) != "12" {
		missing := n.Peer("org2").MissingPrivateData(res.TxID)
		if len(missing) == 0 {
			t.Fatalf("private data absent at org2 but not recorded missing")
		}
	}
}

func TestBlockToLivePurgesAtMembers(t *testing.T) {
	n, err := New(Options{Orgs: []string{"org1", "org2", "org3"}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	def := testDefWithBTL(2)
	if err := n.DeployChaincode(def, testPDCImpl()); err != nil {
		t.Fatal(err)
	}
	cl := n.Gateway("org1")
	members := []*peer.Peer{n.Peer("org1"), n.Peer("org2")}
	if _, err := submitTx(cl, members, "asset", "setPrivate", []string{"k1", "12"}, nil); err != nil {
		t.Fatal(err)
	}
	// Written in block 0; BlockToLive=2 purges at block 2.
	if _, _, ok := n.Peer("org1").PvtStore().GetPrivate("asset", "pdc1", "k1"); !ok {
		t.Fatal("private data missing right after write")
	}
	for i := 0; i < 2; i++ {
		if _, err := submitTx(cl, n.Peers(), "asset", "set", []string{"pub", "x"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := n.Peer("org1").PvtStore().GetPrivate("asset", "pdc1", "k1"); ok {
		t.Fatal("private data survived BlockToLive")
	}
	// The hash remains for auditability.
	if _, _, ok := n.Peer("org1").PvtStore().GetPrivateHash("asset", "pdc1", "k1"); !ok {
		t.Fatal("hash purged")
	}
}

// TestReplayedTransactionRejected: resubmitting a captured valid
// transaction is rejected with DUPLICATE_TXID. Read-only transactions
// would otherwise revalidate forever (their version checks keep
// passing), polluting audit trails.
func TestReplayedTransactionRejected(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")
	if _, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org2")},
		"asset", "setPrivate", []string{"k1", "12"}, nil); err != nil {
		t.Fatal(err)
	}
	prop, _ := cl.NewProposal("asset", "readPrivate", []string{"k1"}, nil)
	tx, _, err := endorseProp(cl, prop, []*peer.Peer{n.Peer("org1"), n.Peer("org2")})
	if err != nil {
		t.Fatal(err)
	}
	res, err := orderTx(cl, tx)
	if err != nil || res.Code != ledger.Valid {
		t.Fatalf("first submission: %v %v", res, err)
	}
	// Replay the identical transaction.
	if err := n.Orderer.Submit(tx); err != nil {
		t.Fatal(err)
	}
	count := 0
	var replayCode ledger.ValidationCode
	n.Peer("org3").Ledger().Scan(func(_ uint64, stored *ledger.Transaction, code ledger.ValidationCode) bool {
		if stored.TxID == tx.TxID {
			count++
			replayCode = code
		}
		return true
	})
	if count != 2 {
		t.Fatalf("occurrences = %d", count)
	}
	if replayCode != ledger.DuplicateTxID {
		t.Fatalf("replay code = %v, want DUPLICATE_TXID", replayCode)
	}
}
