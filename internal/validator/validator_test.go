package validator

import (
	"testing"

	"repro/internal/chaincode"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/pvtdata"
	"repro/internal/rwset"
	"repro/internal/statedb"
)

// fixture wires a Validator for org2 in a 3-org channel, with the signing
// identities of each org's peer available for crafting endorsements.
type fixture struct {
	v        *Validator
	db       *statedb.DB
	pvt      *pvtdata.Store
	peers    map[string]*identity.Identity
	def      *chaincode.Definition
	security core.SecurityConfig
}

func newFixture(t *testing.T, sec core.SecurityConfig, collEP string) *fixture {
	t.Helper()
	orgs := []string{"org1", "org2", "org3"}
	var orgCfgs []channel.OrgConfig
	peers := make(map[string]*identity.Identity, len(orgs))
	for _, org := range orgs {
		ca, err := identity.NewCA(org)
		if err != nil {
			t.Fatal(err)
		}
		orgCfgs = append(orgCfgs, channel.OrgConfig{Name: org, CAPub: ca.PublicKey()})
		id, err := ca.Issue("peer0."+org, identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		peers[org] = id
	}
	cfg := channel.NewConfig("c1", orgCfgs...)
	def := &chaincode.Definition{
		Name:    "cc",
		Version: "1.0",
		Collections: []pvtdata.CollectionConfig{{
			Name:              "pdc1",
			MemberPolicy:      "OR(org1.member, org2.member)",
			MaxPeerCount:      3,
			EndorsementPolicy: collEP,
		}},
	}
	db := statedb.New()
	pvt := pvtdata.NewStore(db)
	f := &fixture{
		db:       db,
		pvt:      pvt,
		peers:    peers,
		def:      def,
		security: sec,
	}
	f.v = New(Config{
		SelfName:  "peer0.org2",
		SelfOrg:   "org2",
		Channel:   cfg,
		Certs:     identity.NewVerifyCache(cfg.Verifier(), sec.VerifyCacheSize, nil),
		Defs:      func(name string) *chaincode.Definition { return map[string]*chaincode.Definition{"cc": def}[name] },
		DB:        db,
		Pvt:       pvt,
		Transient: pvtdata.NewTransientStore(),
		Gossip:    gossip.NewNetwork(),
		Blocks:    ledger.NewBlockStore(),
		Security:  sec,
	})
	return f
}

// tx assembles a transaction over the given rwset, endorsed by the named
// orgs' peers.
func (f *fixture) tx(t *testing.T, set *rwset.TxRWSet, endorsers ...string) *ledger.Transaction {
	t.Helper()
	prp := &ledger.ProposalResponsePayload{
		TxID:      "tx1",
		Chaincode: "cc",
		Response:  ledger.Response{Status: ledger.StatusOK},
		Results:   set.Marshal(),
	}
	tx := &ledger.Transaction{
		TxID:            "tx1",
		ChannelID:       "c1",
		Proposal:        &ledger.Proposal{TxID: "tx1", Chaincode: "cc"},
		ResponsePayload: prp.Bytes(),
	}
	for _, org := range endorsers {
		id := f.peers[org]
		sig, err := id.Sign(tx.ResponsePayload)
		if err != nil {
			t.Fatal(err)
		}
		tx.Endorsements = append(tx.Endorsements, ledger.Endorsement{
			Endorser:  id.Cert.Bytes(),
			Signature: sig,
		})
	}
	return tx
}

func publicWriteSet(key string) *rwset.TxRWSet {
	b := rwset.NewBuilder()
	b.AddWrite("cc", key, rwset.KVWrite{Key: key, Value: []byte("v")})
	set, _ := b.Build("tx1")
	return set
}

func pvtReadSet() *rwset.TxRWSet {
	b := rwset.NewBuilder()
	b.AddPvtRead("pdc1", "k", rwset.KVRead{Key: "k", Version: 0})
	set, _ := b.Build("tx1")
	return set
}

func pvtWriteSet() *rwset.TxRWSet {
	b := rwset.NewBuilder()
	b.AddPvtWrite("pdc1", "k", rwset.KVWrite{Key: "k", Value: []byte("v")})
	set, _ := b.Build("tx1")
	return set
}

func TestPolicyRoutingOriginalFabric(t *testing.T) {
	// Original framework, no collection EP: everything validates against
	// the channel default MAJORITY.
	f := newFixture(t, core.OriginalFabric(), "")
	if code := f.v.ValidateTx(f.tx(t, publicWriteSet("k"), "org1", "org3")); code != ledger.Valid {
		t.Fatalf("majority public write = %v", code)
	}
	if code := f.v.ValidateTx(f.tx(t, publicWriteSet("k"), "org1")); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("minority public write = %v", code)
	}
	// PDC write: chaincode-level policy applies (Use Case 2) — two
	// non/mixed-member endorsements pass.
	if code := f.v.ValidateTx(f.tx(t, pvtWriteSet(), "org1", "org3")); code != ledger.Valid {
		t.Fatalf("pdc write under majority = %v", code)
	}
}

func TestPolicyRoutingCollectionEP(t *testing.T) {
	f := newFixture(t, core.OriginalFabric(), "AND(org1.peer, org2.peer)")
	// Write-related: collection EP replaces the chaincode policy.
	if code := f.v.ValidateTx(f.tx(t, pvtWriteSet(), "org1", "org3")); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("pdc write without org2 = %v", code)
	}
	if code := f.v.ValidateTx(f.tx(t, pvtWriteSet(), "org1", "org2")); code != ledger.Valid {
		t.Fatalf("pdc write with members = %v", code)
	}
	// Read-only: chaincode-level policy still applies (Use Case 2).
	if code := f.v.ValidateTx(f.tx(t, pvtReadSet(), "org1", "org3")); code != ledger.Valid {
		t.Fatalf("pdc read routed to collection EP without Feature 1: %v", code)
	}
}

func TestPolicyRoutingFeature1(t *testing.T) {
	f := newFixture(t, core.Feature1Only(), "AND(org1.peer, org2.peer)")
	if code := f.v.ValidateTx(f.tx(t, pvtReadSet(), "org1", "org3")); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("pdc read under Feature 1 = %v", code)
	}
	if code := f.v.ValidateTx(f.tx(t, pvtReadSet(), "org1", "org2")); code != ledger.Valid {
		t.Fatalf("member pdc read under Feature 1 = %v", code)
	}
}

func TestNonMemberFilter(t *testing.T) {
	f := newFixture(t, core.SecurityConfig{FilterNonMemberEndorsements: true}, "")
	// org3's endorsement is filtered; org1 alone is not a majority of 3.
	if code := f.v.ValidateTx(f.tx(t, pvtWriteSet(), "org1", "org3")); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("filtered pdc write = %v", code)
	}
	// Both members clear the filter and the majority.
	if code := f.v.ValidateTx(f.tx(t, pvtWriteSet(), "org1", "org2")); code != ledger.Valid {
		t.Fatalf("member pdc write = %v", code)
	}
	// Public transactions are unaffected by the filter.
	if code := f.v.ValidateTx(f.tx(t, publicWriteSet("k"), "org1", "org3")); code != ledger.Valid {
		t.Fatalf("public write under filter = %v", code)
	}
}

func TestKeyLevelPolicyFallbacks(t *testing.T) {
	f := newFixture(t, core.OriginalFabric(), "")
	// A broken validation parameter must not brick the key: the
	// chaincode-level policy governs.
	f.db.Put(statedb.MetadataNamespace("cc"), "k", []byte("broken("))
	if code := f.v.ValidateTx(f.tx(t, publicWriteSet("k"), "org1", "org3")); code != ledger.Valid {
		t.Fatalf("broken key-level parameter bricked the key: %v", code)
	}
	// A valid parameter takes over.
	f.db.Put(statedb.MetadataNamespace("cc"), "k", []byte("OR(org2.peer)"))
	if code := f.v.ValidateTx(f.tx(t, publicWriteSet("k"), "org1", "org3")); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("key-level policy not enforced: %v", code)
	}
	if code := f.v.ValidateTx(f.tx(t, publicWriteSet("k"), "org2")); code != ledger.Valid {
		t.Fatalf("key-level-authorized write rejected: %v", code)
	}
	// Other keys remain governed by the chaincode-level policy.
	if code := f.v.ValidateTx(f.tx(t, publicWriteSet("other"), "org2")); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("single endorsement cleared majority: %v", code)
	}
}

func TestBadPayloadCodes(t *testing.T) {
	f := newFixture(t, core.OriginalFabric(), "")
	tx := f.tx(t, publicWriteSet("k"), "org1", "org2")
	tx.ResponsePayload = []byte("garbage")
	if code := f.v.ValidateTx(tx); code != ledger.BadPayload {
		t.Fatalf("garbage payload = %v", code)
	}

	tx = f.tx(t, publicWriteSet("k"), "org1", "org2")
	prp := &ledger.ProposalResponsePayload{TxID: "tx1", Chaincode: "ghost", Results: []byte("{}")}
	tx.ResponsePayload = prp.Bytes()
	if code := f.v.ValidateTx(tx); code != ledger.BadPayload {
		t.Fatalf("unknown chaincode = %v", code)
	}
}

func TestMissingPrivateDataBookkeeping(t *testing.T) {
	f := newFixture(t, core.OriginalFabric(), "")
	// org2 is a member but has no original private data anywhere (no
	// transient entry, no gossip peers): commit records it missing.
	tx := f.tx(t, pvtWriteSet(), "org1", "org2")
	block := ledger.NewBlock(0, nil, []*ledger.Transaction{tx})
	if err := f.v.ValidateAndCommit(block); err != nil {
		t.Fatal(err)
	}
	if block.Metadata.ValidationFlags[0] != ledger.Valid {
		t.Fatalf("tx = %v", block.Metadata.ValidationFlags[0])
	}
	missing := f.v.MissingPrivateData("tx1")
	if len(missing) != 1 || missing[0] != "pdc1" {
		t.Fatalf("missing = %v", missing)
	}
	// The hashed write is still committed.
	if f.pvt.HashedVersion("cc", "pdc1", hashOf("k")) != 1 {
		t.Fatal("hashed write not committed")
	}
}

func hashOf(key string) []byte {
	b := rwset.HashPvtCollection(&rwset.CollPvtRWSet{
		Collection: "pdc1",
		Writes:     []rwset.KVWrite{{Key: key, Value: []byte("x")}},
	})
	return b.HashedWrites[0].KeyHash
}
