package consortium

import (
	"context"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/contracts"
	"repro/internal/ledger"
	"repro/internal/service"
)

// newFig1 builds the paper's Fig. 1 topology: org1, org2, org4 on
// channel C1; org2, org3 on channel C2.
func newFig1(t *testing.T) *Consortium {
	t.Helper()
	c, err := New(Options{
		Orgs: []string{"org1", "org2", "org3", "org4"},
		Channels: map[string][]string{
			"c1": {"org1", "org2", "org4"},
			"c2": {"org2", "org3"},
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range c.Channels() {
		def := &chaincode.Definition{Name: "asset", Version: "1.0"}
		if err := c.Channel(name).DeployChaincode(def, contracts.NewPublicAsset()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestChannelLedgersAreIsolated(t *testing.T) {
	c := newFig1(t)
	c1, c2 := c.Channel("c1"), c.Channel("c2")

	// org2 (member of both channels) writes different data on each.
	ctx := context.Background()
	if _, err := c1.Gateway("org2").Submit(ctx,
		service.NewInvoke("asset", "set", "k", "on-c1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Gateway("org2").Submit(ctx,
		service.NewInvoke("asset", "set", "k", "on-c2")); err != nil {
		t.Fatal(err)
	}

	// org2's per-channel ledgers disagree on k, by design.
	v1, _, _ := c1.Peer("org2").WorldState().Get("asset", "k")
	v2, _, _ := c2.Peer("org2").WorldState().Get("asset", "k")
	if string(v1) != "on-c1" || string(v2) != "on-c2" {
		t.Fatalf("c1=%q c2=%q", v1, v2)
	}

	// Chains advance independently.
	if c1.Peer("org2").Ledger().Height() != 1 || c2.Peer("org2").Ledger().Height() != 1 {
		t.Fatal("heights wrong")
	}

	// org3 is not on c1 at all.
	if c1.Peer("org3") != nil {
		t.Fatal("org3 has a peer on c1")
	}
	if c1.Channel.HasOrg("org3") {
		t.Fatal("org3 in c1 config")
	}
}

func TestSharedIdentityRootAcrossChannels(t *testing.T) {
	c := newFig1(t)
	// An identity issued by org2's consortium CA verifies on both
	// channels' verifiers — one identity root, many channels.
	id, err := c.CA("org2").Issue("admin0.org2", "admin")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range c.Channels() {
		v := c.Channel(name).Channel.Verifier()
		if err := v.ValidateCertificate(id.Cert); err != nil {
			t.Fatalf("channel %s rejects org2 identity: %v", name, err)
		}
	}
	// But org4's identity is unknown on c2 (org4 is not a member).
	id4, err := c.CA("org4").Issue("peer9.org4", "peer")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Channel("c2").Channel.Verifier().ValidateCertificate(id4.Cert); err == nil {
		t.Fatal("c2 accepted an identity from non-member org4")
	}
}

func TestCrossChannelTransactionRejected(t *testing.T) {
	c := newFig1(t)
	c1, c2 := c.Channel("c1"), c.Channel("c2")

	// Endorse a transaction on c2, then try to order it into c1: the
	// endorsers' orgs (org2, org3) cannot satisfy c1's policies — and
	// org3's certificate is not even validatable there.
	gw2 := c2.Gateway("org2")
	prop, err := gw2.NewProposal("asset", "set", []string{"x", "y"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx, _, err := gw2.EndorseProposal(context.Background(), prop, service.AsEndorsers(c2.Peers()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Orderer.Submit(tx); err != nil {
		t.Fatal(err) // the orderer bundles blindly
	}
	_, code, err := c1.Peer("org1").Ledger().Transaction(tx.TxID)
	if err != nil {
		t.Fatal(err)
	}
	if code == ledger.Valid {
		t.Fatal("cross-channel transaction validated")
	}
	if _, _, ok := c1.Peer("org1").WorldState().Get("asset", "x"); ok {
		t.Fatal("cross-channel write applied")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := New(Options{Orgs: []string{"a"}}); err == nil {
		t.Fatal("no channels accepted")
	}
	_, err := New(Options{
		Orgs:     []string{"a"},
		Channels: map[string][]string{"c1": {"ghost"}},
	})
	if err == nil {
		t.Fatal("unknown channel member accepted")
	}
}
