package peer

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
)

// TestOwnEndorsementEquivalence: a peer that endorsed the transactions
// (and so skips verifying its own signatures) and a peer with the
// verification cache disabled (which verifies everything in full)
// validate the same blocks to identical flags and an identical state
// hash. The blocks mix own, foreign, forged and outsider endorsements
// with MVCC conflicts. Run under -race, with four validation workers.
func TestOwnEndorsementEquivalence(t *testing.T) {
	ca1, err := identity.NewCA("org1")
	if err != nil {
		t.Fatal(err)
	}
	ca2, err := identity.NewCA("org2")
	if err != nil {
		t.Fatal(err)
	}
	rogueCA, err := identity.NewCA("org2") // claims org2, not trusted
	if err != nil {
		t.Fatal(err)
	}
	cfg := channel.NewConfig("c1",
		channel.OrgConfig{Name: "org1", CAPub: ca1.PublicKey()},
		channel.OrgConfig{Name: "org2", CAPub: ca2.PublicKey()},
	)
	gos := gossip.NewNetwork()
	newPeer := func(ca *identity.CA, name string, cacheSize int) *Peer {
		id, err := ca.Issue(name, identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		sec := core.OriginalFabric()
		sec.ValidationWorkers = 4
		sec.VerifyCacheSize = cacheSize
		p, err := New(Config{Identity: id, Channel: cfg, Gossip: gos, Security: sec})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	endorser := newPeer(ca1, "peer0.org1", 0)  // signs the "own" endorsements
	foreign := newPeer(ca2, "peer0.org2", 0)   // the other org's endorser
	uncached := newPeer(ca1, "peer1.org1", -1) // verifies everything
	outsider, err := rogueCA.Issue("peer9.org2", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	clientID, err := ca1.Issue("client0.org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	def := &chaincode.Definition{Name: "cc", Version: "1.0"}
	impl := chaincode.Router{
		// bump reads a counter and writes it back incremented, so two
		// bumps of one key in a block conflict.
		"bump": func(stub chaincode.Stub) ledger.Response {
			key := stub.Args()[0]
			cur, err := stub.GetState(key)
			if err != nil {
				return chaincode.ErrorResponse(err.Error())
			}
			n, _ := strconv.Atoi(string(cur))
			if err := stub.PutState(key, []byte(strconv.Itoa(n+1))); err != nil {
				return chaincode.ErrorResponse(err.Error())
			}
			return chaincode.SuccessResponse(nil)
		},
	}
	peers := []*Peer{endorser, foreign, uncached}
	for _, p := range peers {
		if err := p.ApproveDefinition(def); err != nil {
			t.Fatal(err)
		}
		p.InstallChaincode("cc", impl)
	}

	// endorse has the named endorsers execute one bump of key.
	endorse := func(key string, by ...*Peer) (*ledger.Transaction, []ledger.Endorsement) {
		prop := proposal(t, clientID, "bump", key)
		tx := &ledger.Transaction{TxID: prop.TxID, ChannelID: "c1", Creator: prop.Creator, Proposal: prop}
		var ends []ledger.Endorsement
		for _, p := range by {
			resp, err := p.ProcessProposal(prop)
			if err != nil {
				t.Fatal(err)
			}
			if tx.ResponsePayload == nil {
				tx.ResponsePayload = resp.Payload
			} else if !bytes.Equal(tx.ResponsePayload, resp.Payload) {
				t.Fatal("endorsers disagree on the payload")
			}
			ends = append(ends, resp.Endorsement)
		}
		return tx, ends
	}
	flip := func(e ledger.Endorsement) ledger.Endorsement {
		sig := append([]byte(nil), e.Signature...)
		sig[len(sig)-1] ^= 0x01
		return ledger.Endorsement{Endorser: e.Endorser, Signature: sig}
	}
	type entry struct {
		tx   *ledger.Transaction
		want ledger.ValidationCode
	}
	// blockTxs builds one block's transactions for block b; want pins
	// the outcomes so that agreement between the peers is not vacuous.
	blockTxs := func(b int) []entry {
		k := func(s string) string { return s + strconv.Itoa(b) }
		var out []entry
		add := func(tx *ledger.Transaction, ends []ledger.Endorsement, want ledger.ValidationCode) {
			tx.Endorsements = ends
			out = append(out, entry{tx, want})
		}

		tx, e := endorse(k("a"), endorser, foreign)
		add(tx, e, ledger.Valid) // own + foreign
		tx, e = endorse(k("a"), foreign, endorser)
		add(tx, e, ledger.MVCCConflict) // same read as the previous tx
		tx, e = endorse(k("b"), endorser)
		add(tx, e, ledger.EndorsementPolicyFailure) // own only
		tx, e = endorse(k("c"), foreign)
		add(tx, e, ledger.EndorsementPolicyFailure) // foreign only

		// Own certificate and signature moved onto another payload.
		_, donorEnds := endorse(k("d"), endorser)
		tx, e = endorse(k("e"), foreign)
		add(tx, []ledger.Endorsement{donorEnds[0], e[0]}, ledger.BadSignature)

		tx, e = endorse(k("f"), endorser, foreign)
		add(tx, []ledger.Endorsement{flip(e[0]), e[1]}, ledger.BadSignature) // own flipped
		tx, e = endorse(k("g"), endorser, foreign)
		add(tx, []ledger.Endorsement{e[0], flip(e[1])}, ledger.BadSignature) // foreign flipped

		// An outsider's genuine signature under a CA nobody trusts.
		tx, e = endorse(k("h"), endorser)
		sig, err := outsider.Sign(tx.ResponsePayload)
		if err != nil {
			t.Fatal(err)
		}
		add(tx, append(e, ledger.Endorsement{Endorser: outsider.Cert.Bytes(), Signature: sig}), ledger.BadSignature)

		tx, e = endorse(k("i"), foreign, endorser)
		add(tx, e, ledger.Valid) // foreign + own, other order
		return out
	}

	const blocks = 3
	var prev []byte
	for b := 0; b < blocks; b++ {
		entries := blockTxs(b)
		txs := make([]*ledger.Transaction, len(entries))
		want := make([]ledger.ValidationCode, len(entries))
		for i, en := range entries {
			txs[i], want[i] = en.tx, en.want
		}
		block := ledger.NewBlock(uint64(b), prev, txs)
		prev = block.Hash()
		for _, p := range peers {
			cp := block.Clone()
			if err := p.CommitBlock(cp); err != nil {
				t.Fatalf("%s block %d: %v", p.Name(), b, err)
			}
			if got := cp.Metadata.ValidationFlags; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s block %d flags = %v, want %v", p.Name(), b, got, want)
			}
		}
	}
	for _, p := range peers[1:] {
		if !bytes.Equal(p.WorldState().StateHash(), endorser.WorldState().StateHash()) {
			t.Fatalf("%s state hash differs from the endorsing peer's", p.Name())
		}
		if !bytes.Equal(p.Ledger().LastHash(), endorser.Ledger().LastHash()) {
			t.Fatalf("%s chain differs from the endorsing peer's", p.Name())
		}
	}
}
