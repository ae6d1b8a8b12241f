package network

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/peer"
	"repro/internal/reconcile"
)

// privateStoreDump renders every live private tuple of a collection at a
// peer as "key=value@version" lines — a bit-exact fingerprint of the
// member store used to assert replica convergence.
func privateStoreDump(p *peer.Peer, chaincode, collection string) string {
	var b bytes.Buffer
	for _, key := range p.PvtStore().PrivateKeys(chaincode, collection) {
		value, ver, ok := p.PvtStore().GetPrivate(chaincode, collection, key)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s=%x@%d\n", key, value, ver)
	}
	return b.String()
}

func assertPrivateStoresConverged(t *testing.T, peers []*peer.Peer, chaincode, collection string) {
	t.Helper()
	want := privateStoreDump(peers[0], chaincode, collection)
	for _, p := range peers[1:] {
		if got := privateStoreDump(p, chaincode, collection); got != want {
			t.Fatalf("private stores diverged:\n%s has:\n%s%s has:\n%s",
				peers[0].Name(), want, p.Name(), got)
		}
	}
}

// TestReconcileMissingFromCommittedStore drops gossip deliveries to a
// member peer, commits a private write it cannot obtain, then runs the
// reconciler: the data is recovered from the other member's *committed*
// store (the transient copies are long purged).
func TestReconcileMissingFromCommittedStore(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")

	// org2 is fully isolated from gossip: it neither receives the
	// dissemination nor can it pull at commit time.
	n.Gossip.Isolate("peer0.org2", true)
	res, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org3")},
		"asset", "setPrivate", []string{"k1", "12"}, nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != ledger.Valid {
		t.Fatalf("code = %v", res.Code)
	}

	org2 := n.Peer("org2")
	if _, _, ok := org2.PvtStore().GetPrivate("asset", "pdc1", "k1"); ok {
		t.Fatal("isolated org2 obtained the data")
	}
	if len(org2.MissingPrivateData(res.TxID)) == 0 {
		t.Fatal("missing data not recorded")
	}

	// Gossip works again; the reconciler pulls from org1, whose
	// transient store was purged at its own commit — the value is
	// served by reconstruction from org1's committed private store.
	n.Gossip.Isolate("peer0.org2", false)
	recovered := org2.TickReconcile()
	if recovered != 1 {
		t.Fatalf("recovered = %d, want 1", recovered)
	}
	if v, ver, ok := org2.PvtStore().GetPrivate("asset", "pdc1", "k1"); !ok || string(v) != "12" || ver != 1 {
		t.Fatalf("after reconcile: (%q, v%d, %v)", v, ver, ok)
	}
	if len(org2.MissingPrivateData(res.TxID)) != 0 {
		t.Fatal("missing entry not cleared")
	}
	// Idempotent.
	if org2.TickReconcile() != 0 {
		t.Fatal("second reconcile recovered something")
	}
}

// TestReconcileSkipsSupersededValues: when the key was overwritten after
// the missed transaction, the reconciler must not clobber the newer
// value with the old one.
func TestReconcileSkipsSupersededValues(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")

	n.Gossip.Isolate("peer0.org2", true)
	res1, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org3")},
		"asset", "setPrivate", []string{"k1", "12"}, nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	org2 := n.Peer("org2")
	if _, _, ok := org2.PvtStore().GetPrivate("asset", "pdc1", "k1"); ok {
		t.Fatal("isolated org2 obtained the first write")
	}

	// A second write supersedes the first; org2 receives this one.
	n.Gossip.Isolate("peer0.org2", false)
	if _, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org3")},
		"asset", "setPrivate", []string{"k1", "14"}, nil,
	); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := org2.PvtStore().GetPrivate("asset", "pdc1", "k1"); string(v) != "14" {
		t.Fatalf("pre-reconcile value = %q", v)
	}

	// Reconciling the missed first transaction must not regress k1.
	org2.TickReconcile()
	if v, ver, _ := org2.PvtStore().GetPrivate("asset", "pdc1", "k1"); string(v) != "14" || ver != 2 {
		t.Fatalf("reconcile regressed value: (%q, v%d)", v, ver)
	}
	_ = res1
}

// TestReconcilerConvergenceAfterHeal is the end-to-end anti-entropy
// scenario: dissemination to one member is lost, several private writes
// commit, the reconciler fails (and backs off) while the peer stays
// isolated, the network heals, and a bounded number of ticks makes every
// member peer's private store bit-identical — with attempt counters and
// latency histograms observable on the peer.
func TestReconcilerConvergenceAfterHeal(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")
	org1, org2 := n.Peer("org1"), n.Peer("org2")

	n.Gossip.Isolate("peer0.org2", true)
	var txIDs []string
	for i := 1; i <= 3; i++ {
		res, err := submitTx(cl,
			[]*peer.Peer{n.Peer("org1"), n.Peer("org3")},
			"asset", "setPrivate", []string{fmt.Sprintf("k%d", i), "12"}, nil,
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.Code != ledger.Valid {
			t.Fatalf("tx %d code = %v", i, res.Code)
		}
		txIDs = append(txIDs, res.TxID)
	}
	if got := len(org2.Reconciler().Pending()); got != 0 {
		t.Fatalf("pending before first tick = %d, want 0 (queue fills on tick)", got)
	}

	// Two ticks while still isolated: every entry is attempted, fails,
	// and backs off.
	for tick := 0; tick < 2; tick++ {
		if got := org2.TickReconcile(); got != 0 {
			t.Fatalf("isolated tick recovered %d", got)
		}
	}
	pending := org2.Reconciler().Pending()
	if len(pending) != 3 {
		t.Fatalf("pending = %v, want 3 entries", pending)
	}
	for _, e := range pending {
		if got := org2.Reconciler().Attempts(e); got == 0 {
			t.Fatalf("entry %v has no failed attempts recorded", e)
		}
	}
	m := org2.Metrics()
	if m[metrics.ReconcileEnqueued] != 3 || m[metrics.ReconcileFailures] == 0 || m[metrics.ReconcileRecovered] != 0 {
		t.Fatalf("isolated-phase counters = %v", m)
	}

	// Heal and tick: with the default policy (base backoff 1 tick,
	// doubling) every entry retries within a few ticks of the heal.
	n.Gossip.Isolate("peer0.org2", false)
	recovered := 0
	for tick := 0; tick < 10 && len(org2.Reconciler().Pending()) > 0; tick++ {
		recovered += org2.TickReconcile()
	}
	if recovered != 3 {
		t.Fatalf("recovered = %d, want 3", recovered)
	}
	for _, txID := range txIDs {
		if miss := org2.MissingPrivateData(txID); len(miss) != 0 {
			t.Fatalf("tx %s still missing %v", txID, miss)
		}
	}
	assertPrivateStoresConverged(t, []*peer.Peer{org1, org2}, "asset", "pdc1")

	m = org2.Metrics()
	if m[metrics.ReconcileRecovered] != 3 || m[metrics.ReconcileGiveUps] != 0 {
		t.Fatalf("healed-phase counters = %v", m)
	}
	attemptHist := org2.Timings()[metrics.ReconcileAttempt]
	if attemptHist.Count != m[metrics.ReconcileAttempts] || attemptHist.Count == 0 {
		t.Fatalf("attempt histogram count = %d, counter = %d",
			attemptHist.Count, m[metrics.ReconcileAttempts])
	}
}

// TestReconcilerGiveUpAndReinstate: entries that keep failing are
// abandoned after ReconcileMaxAttempts and stay visible in the gave-up
// queue; an operator Reinstate after the heal recovers them.
func TestReconcilerGiveUpAndReinstate(t *testing.T) {
	n := newTestNet(t)
	sec := core.OriginalFabric()
	sec.ReconcileMaxAttempts = 2
	sec.ReconcileBaseBackoff = 1
	sec.ReconcileMaxBackoff = 1
	n.SetSecurity(sec)
	cl := n.Gateway("org1")
	org2 := n.Peer("org2")

	n.Gossip.Isolate("peer0.org2", true)
	res, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org3")},
		"asset", "setPrivate", []string{"k1", "12"}, nil,
	)
	if err != nil {
		t.Fatal(err)
	}

	// Two failing ticks exhaust the attempt budget.
	org2.TickReconcile()
	org2.TickReconcile()
	gaveUp := org2.Reconciler().GaveUp()
	want := reconcile.Entry{TxID: res.TxID, Collection: "pdc1"}
	if len(gaveUp) != 1 || gaveUp[0] != want {
		t.Fatalf("gaveUp = %v, want [%v]", gaveUp, want)
	}
	if len(org2.Reconciler().Pending()) != 0 {
		t.Fatal("gave-up entry still pending")
	}
	m := org2.Metrics()
	if m[metrics.ReconcileGiveUps] != 1 || m[metrics.ReconcileAttempts] != 2 {
		t.Fatalf("counters = %v", m)
	}

	// Healing alone does not resurrect it: no further attempts burn.
	n.Gossip.Isolate("peer0.org2", false)
	if org2.TickReconcile() != 0 {
		t.Fatal("gave-up entry was retried")
	}
	if got := org2.Metrics()[metrics.ReconcileAttempts]; got != 2 {
		t.Fatalf("attempts after give-up = %d, want 2", got)
	}
	// The entry is still recorded as missing at the validator.
	if len(org2.MissingPrivateData(res.TxID)) != 1 {
		t.Fatal("missing record lost")
	}

	// Operator intervention: reinstate and tick.
	if !org2.Reconciler().Reinstate(want) {
		t.Fatal("Reinstate failed")
	}
	if got := org2.TickReconcile(); got != 1 {
		t.Fatalf("recovered after reinstate = %d, want 1", got)
	}
	assertPrivateStoresConverged(t, []*peer.Peer{n.Peer("org1"), org2}, "asset", "pdc1")
}

// TestReconcilerBackoffSpacing: a still-failing entry is NOT attempted
// on every tick — the capped exponential backoff spaces the retries.
func TestReconcilerBackoffSpacing(t *testing.T) {
	n := newTestNet(t)
	cl := n.Gateway("org1")
	org2 := n.Peer("org2")

	n.Gossip.Isolate("peer0.org2", true)
	if _, err := submitTx(cl,
		[]*peer.Peer{n.Peer("org1"), n.Peer("org3")},
		"asset", "setPrivate", []string{"k1", "12"}, nil,
	); err != nil {
		t.Fatal(err)
	}

	// Default policy: base 1, doubling. Attempts land on ticks
	// 1, 2, 4, 8, ... — after 8 ticks only 4 attempts must have burned.
	for i := 0; i < 8; i++ {
		org2.TickReconcile()
	}
	if got := org2.Metrics()[metrics.ReconcileAttempts]; got != 4 {
		t.Fatalf("attempts after 8 ticks = %d, want 4 (backoff spacing)", got)
	}
}
