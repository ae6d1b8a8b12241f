package endorser

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/core"
	"repro/internal/fabcrypto"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/pvtdata"
	"repro/internal/rwset"
	"repro/internal/statedb"
)

// env wires a standalone endorser for one peer org.
type env struct {
	endorser *Endorser
	verifier *identity.Verifier
	certs    *identity.VerifyCache // the peer's one cache
	counters *metrics.Counters     // the verify cache's hits and misses
	ca       *identity.CA
	clientID *identity.Identity
	db       *statedb.DB
	pvt      *pvtdata.Store
	trans    *pvtdata.TransientStore
	gossip   *gossip.Network
}

func testDef() *chaincode.Definition {
	return &chaincode.Definition{
		Name:    "cc",
		Version: "1.0",
		Collections: []pvtdata.CollectionConfig{{
			Name:         "pdc1",
			MemberPolicy: "OR(org1.member, org2.member)",
			MaxPeerCount: 3,
		}},
	}
}

func newEnv(t *testing.T, peerOrg string, sec core.SecurityConfig) *env {
	t.Helper()
	ca, err := identity.NewCA(peerOrg)
	if err != nil {
		t.Fatal(err)
	}
	peerID, err := ca.Issue("peer0."+peerOrg, identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	clientID, err := ca.Issue("client0."+peerOrg, identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	verifier := identity.NewVerifier()
	verifier.TrustCA(peerOrg, ca.PublicKey())

	db := statedb.New()
	pvt := pvtdata.NewStore(db)
	trans := pvtdata.NewTransientStore()
	gos := gossip.NewNetwork()
	registry := chaincode.NewRegistry()
	registry.Install("cc", chaincode.Router{
		"put": func(stub chaincode.Stub) ledger.Response {
			if err := stub.PutState("k", []byte("v")); err != nil {
				return chaincode.ErrorResponse(err.Error())
			}
			return chaincode.SuccessResponse([]byte("done"))
		},
		"putPvt": func(stub chaincode.Stub) ledger.Response {
			if err := stub.PutPrivateData("pdc1", "k", []byte("secret")); err != nil {
				return chaincode.ErrorResponse(err.Error())
			}
			return chaincode.SuccessResponse([]byte("secret"))
		},
		"fail": func(stub chaincode.Stub) ledger.Response {
			return chaincode.ErrorResponse("business rule violated")
		},
		// tamper rewrites everything it can reach of the creator.
		"tamper": func(stub chaincode.Stub) ledger.Response {
			c := stub.Creator()
			c.Org = "org2"
			c.Subject = "impostor"
			c.PubKey[0] ^= 0xff
			c.CASig[0] ^= 0xff
			return chaincode.SuccessResponse(nil)
		},
		"whoami": func(stub chaincode.Stub) ledger.Response {
			return chaincode.SuccessResponse(stub.Creator().Bytes())
		},
	})

	def := testDef()
	counters := &metrics.Counters{}
	certs := identity.NewVerifyCache(verifier, 0, counters)
	e := New(Config{
		Identity:  peerID,
		Certs:     certs,
		Registry:  registry,
		Defs:      func(name string) *chaincode.Definition { return map[string]*chaincode.Definition{"cc": def}[name] },
		DB:        db,
		Pvt:       pvt,
		Transient: trans,
		Gossip:    gos,
		Security:  sec,
	})
	return &env{endorser: e, verifier: verifier, certs: certs, counters: counters, ca: ca, clientID: clientID,
		db: db, pvt: pvt, trans: trans, gossip: gos}
}

func (e *env) proposal(t *testing.T, fn string) *ledger.Proposal {
	t.Helper()
	nonce, err := ledger.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	creator := e.clientID.Cert.Bytes()
	return &ledger.Proposal{
		TxID:      ledger.NewTxID(nonce, creator),
		Chaincode: "cc",
		Function:  fn,
		Creator:   creator,
		Nonce:     nonce,
	}
}

func TestEndorseProducesVerifiableSignature(t *testing.T) {
	e := newEnv(t, "org1", core.OriginalFabric())
	resp, err := e.endorser.ProcessProposal(e.proposal(t, "put"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Response.Payload) != "done" {
		t.Fatalf("payload = %q", resp.Response.Payload)
	}
	cert, err := identity.ParseCertificate(resp.Endorsement.Endorser)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.verifier.VerifySignature(cert, resp.Payload, resp.Endorsement.Signature); err != nil {
		t.Fatalf("endorsement signature invalid: %v", err)
	}
	// Plain mode: no PlainPayload side channel.
	if resp.PlainPayload != nil {
		t.Fatal("PlainPayload set without Feature 2")
	}
	// Simulation did not commit.
	if _, _, ok := e.db.Get("cc", "k"); ok {
		t.Fatal("endorsement committed state")
	}
}

func TestChaincodeFailureWithholdsEndorsement(t *testing.T) {
	e := newEnv(t, "org1", core.OriginalFabric())
	_, err := e.endorser.ProcessProposal(e.proposal(t, "fail"))
	if !errors.Is(err, ErrChaincodeFailed) {
		t.Fatalf("err = %v, want ErrChaincodeFailed", err)
	}
}

func TestUnknownChaincodeRejected(t *testing.T) {
	e := newEnv(t, "org1", core.OriginalFabric())
	prop := e.proposal(t, "put")
	prop.Chaincode = "ghost"
	_, err := e.endorser.ProcessProposal(prop)
	if !errors.Is(err, ErrChaincodeNotFound) {
		t.Fatalf("err = %v, want ErrChaincodeNotFound", err)
	}
}

// TestBadCreatorRejected: every kind of bad creator is rejected with
// ErrBadCreator on every attempt (rejections are never cached), CA
// rotation revokes an accepted certificate, and repeat proposals from one
// client cost one CA-signature check.
func TestBadCreatorRejected(t *testing.T) {
	rogueCA, err := identity.NewCA("rogue")
	if err != nil {
		t.Fatal(err)
	}
	rogueClient, err := rogueCA.Issue("client0.rogue", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		creator func(e *env) []byte
	}{
		{"garbage bytes", func(*env) []byte { return []byte("garbage") }},
		{"unknown org", func(*env) []byte { return rogueClient.Cert.Bytes() }},
		{"flipped CA signature", func(e *env) []byte {
			forged := e.clientID.Cert.Clone()
			forged.CASig[0] ^= 0x01
			return forged.Bytes()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, "org1", core.OriginalFabric())
			creator := tc.creator(e)
			for attempt := 1; attempt <= 2; attempt++ {
				prop := e.proposal(t, "put")
				prop.Creator = creator
				if _, err := e.endorser.ProcessProposal(prop); !errors.Is(err, ErrBadCreator) {
					t.Fatalf("attempt %d: err = %v, want ErrBadCreator", attempt, err)
				}
			}
			if got := e.counters.Get(metrics.VerifyCacheHits); got != 0 {
				t.Fatalf("a rejected creator was served from the cache (%d hits)", got)
			}
			// The client's own certificate is unaffected.
			if _, err := e.endorser.ProcessProposal(e.proposal(t, "put")); err != nil {
				t.Fatalf("valid creator after rejections: %v", err)
			}
		})
	}

	t.Run("CA rotation revokes an accepted certificate", func(t *testing.T) {
		e := newEnv(t, "org1", core.OriginalFabric())
		if _, err := e.endorser.ProcessProposal(e.proposal(t, "put")); err != nil {
			t.Fatal(err)
		}
		rotated, err := identity.NewCA("org1")
		if err != nil {
			t.Fatal(err)
		}
		e.verifier.TrustCA("org1", rotated.PublicKey())
		if _, err := e.endorser.ProcessProposal(e.proposal(t, "put")); !errors.Is(err, ErrBadCreator) {
			t.Fatalf("err = %v after CA rotation, want ErrBadCreator", err)
		}
	})

	t.Run("one CA check per client", func(t *testing.T) {
		e := newEnv(t, "org1", core.OriginalFabric())
		const n = 10
		for i := 0; i < n; i++ {
			if _, err := e.endorser.ProcessProposal(e.proposal(t, "put")); err != nil {
				t.Fatal(err)
			}
		}
		if got := e.counters.Get(metrics.VerifyCacheMisses); got != 1 {
			t.Fatalf("verify_cache_misses = %d after %d proposals from one client, want 1", got, n)
		}
		if got := e.counters.Get(metrics.VerifyCacheHits); got != n-1 {
			t.Fatalf("verify_cache_hits = %d, want %d", got, n-1)
		}
	})
}

// TestOwnEndorsementsCostNoMisses: the endorser signs through the peer's
// cache, so validating N of its own endorsements through that cache adds
// N hits and no verify_cache_misses, with and without Feature 2's hashed
// payload.
func TestOwnEndorsementsCostNoMisses(t *testing.T) {
	for name, sec := range map[string]core.SecurityConfig{
		"original": core.OriginalFabric(),
		"defended": core.DefendedFabric(),
	} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, "org1", sec)
			const n = 5
			resps := make([]*ledger.ProposalResponse, 0, n)
			for i := 0; i < n; i++ {
				resp, err := e.endorser.ProcessProposal(e.proposal(t, "put"))
				if err != nil {
					t.Fatal(err)
				}
				resps = append(resps, resp)
			}
			hits, misses := e.counters.Get(metrics.VerifyCacheHits), e.counters.Get(metrics.VerifyCacheMisses)
			entries := e.certs.Len()
			for _, r := range resps {
				if _, err := e.certs.VerifyEndorsement(r.Endorsement.Endorser, fabcrypto.Hash(r.Payload), r.Endorsement.Signature); err != nil {
					t.Fatal(err)
				}
			}
			if got := e.counters.Get(metrics.VerifyCacheMisses) - misses; got != 0 {
				t.Fatalf("validating %d own endorsements added %d verify_cache_misses, want 0", n, got)
			}
			if got := e.counters.Get(metrics.VerifyCacheHits) - hits; got != n {
				t.Fatalf("validating %d own endorsements added %d hits, want %d", n, got, n)
			}
			// A certificate-level hit followed by a signature check would
			// also count as a hit, but would store a new entry.
			if got := e.certs.Len(); got != entries {
				t.Fatalf("cache grew from %d to %d entries: the endorsements were verified, not recorded", entries, got)
			}
		})
	}
}

// TestChaincodeCannotRewriteCachedCreator: the creator certificate is
// cached per peer, so a chaincode that rewrites what Stub.Creator returns
// must not change who the peer believes the client is on later proposals.
func TestChaincodeCannotRewriteCachedCreator(t *testing.T) {
	e := newEnv(t, "org1", core.OriginalFabric())
	if _, err := e.endorser.ProcessProposal(e.proposal(t, "tamper")); err != nil {
		t.Fatal(err)
	}
	resp, err := e.endorser.ProcessProposal(e.proposal(t, "whoami"))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.counters.Get(metrics.VerifyCacheHits); got != 1 {
		t.Fatalf("second proposal was not served from the cache (%d hits)", got)
	}
	seen, err := identity.ParseCertificate(resp.Response.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seen.Bytes(), e.clientID.Cert.Bytes()) {
		t.Fatalf("creator seen as %s/%s after tampering, want %s/%s",
			seen.Org, seen.Subject, e.clientID.Cert.Org, e.clientID.Cert.Subject)
	}
}

func TestPrivateWritePersistsTransient(t *testing.T) {
	e := newEnv(t, "org1", core.OriginalFabric())
	prop := e.proposal(t, "putPvt")
	if _, err := e.endorser.ProcessProposal(prop); err != nil {
		t.Fatal(err)
	}
	set := e.trans.Get(prop.TxID)
	if set == nil || len(set.CollSets) != 1 {
		t.Fatal("transient store empty after private endorsement")
	}
	if string(set.CollSets[0].Writes[0].Value) != "secret" {
		t.Fatal("original value not in transient store")
	}
}

func TestDisseminationFailureWithholdsEndorsement(t *testing.T) {
	e := newEnv(t, "org1", core.OriginalFabric())
	// Require one other member peer; none is registered on the gossip
	// network, so dissemination must fail and no endorsement returned.
	def := testDef()
	def.Collections[0].RequiredPeerCount = 1
	e.endorser.defs = func(string) *chaincode.Definition { return def }

	_, err := e.endorser.ProcessProposal(e.proposal(t, "putPvt"))
	if !errors.Is(err, gossip.ErrDisseminationShort) {
		t.Fatalf("err = %v, want ErrDisseminationShort", err)
	}
}

func TestFeature2SignsHashedForm(t *testing.T) {
	e := newEnv(t, "org1", core.Feature2Only())
	resp, err := e.endorser.ProcessProposal(e.proposal(t, "putPvt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.PlainPayload) == 0 {
		t.Fatal("Feature 2 endorser returned no PR_Ori")
	}
	// The signed payload is the hashed form of the plain form.
	plain, err := ledger.ParseProposalResponsePayload(resp.PlainPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.HashedPayloadForm().Bytes(), resp.Payload) {
		t.Fatal("signed payload is not PR_Hash of PR_Ori")
	}
	// The signed form's payload equals SHA-256 of the plaintext.
	signed, err := ledger.ParseProposalResponsePayload(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !fabcrypto.Equal(signed.Response.Payload, fabcrypto.Hash([]byte("secret"))) {
		t.Fatal("hashed payload wrong")
	}
	// The signature covers PR_Hash, not PR_Ori.
	cert, _ := identity.ParseCertificate(resp.Endorsement.Endorser)
	if err := e.verifier.VerifySignature(cert, resp.Payload, resp.Endorsement.Signature); err != nil {
		t.Fatalf("signature over PR_Hash invalid: %v", err)
	}
	if err := e.verifier.VerifySignature(cert, resp.PlainPayload, resp.Endorsement.Signature); err == nil {
		t.Fatal("signature also verifies over PR_Ori — hashing had no effect")
	}
}

func TestRWSetsEmbeddedHashed(t *testing.T) {
	e := newEnv(t, "org1", core.OriginalFabric())
	resp, err := e.endorser.ProcessProposal(e.proposal(t, "putPvt"))
	if err != nil {
		t.Fatal(err)
	}
	prp, err := ledger.ParseProposalResponsePayload(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	set, err := prp.RWSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(set.CollSets) != 1 {
		t.Fatal("collection set missing")
	}
	hw := set.CollSets[0].HashedWrites[0]
	if !fabcrypto.Equal(hw.KeyHash, fabcrypto.HashString("k")) ||
		!fabcrypto.Equal(hw.ValueHash, fabcrypto.Hash([]byte("secret"))) {
		t.Fatal("hashed write content wrong")
	}
	if rwset.Classify(set) != rwset.TxWriteOnly {
		t.Fatalf("classified %v", rwset.Classify(set))
	}
	// The read/write set never contains the cleartext — but the signed
	// payload does, verbatim (Use Case 3: the chaincode returned it),
	// which is exactly the exposure the paper analyzes.
	if bytes.Contains(prp.Results, []byte("secret")) {
		t.Fatal("cleartext leaked into the hashed rwset")
	}
	if !bytes.Contains(resp.Payload, []byte("secret")) {
		t.Fatal("signed payload does not carry the returned value verbatim")
	}
	if string(prp.Response.Payload) != "secret" {
		t.Fatal("payload exposure (Use Case 3) not present without Feature 2")
	}
}
