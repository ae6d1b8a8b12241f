package network

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/contracts"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/service"
)

// newLoadNet builds a three-org network with a plain public-asset
// chaincode and the given orderer batch size.
func newLoadNet(t *testing.T, batchSize int) *Network {
	t.Helper()
	n, err := New(Options{
		Orgs:      []string{"org1", "org2", "org3"},
		BatchSize: batchSize,
		Seed:      23,
	})
	if err != nil {
		t.Fatalf("build network: %v", err)
	}
	def := &chaincode.Definition{Name: "asset", Version: "1.0"}
	if err := n.DeployChaincode(def, contracts.NewPublicAsset()); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return n
}

// TestConcurrentSubmitStatusCloseStress hammers one shared Gateway with
// concurrent SubmitAsync / Status / Close interleavings — the -race
// regression test for the commit-handle locking. Every deliver
// subscription must be released by the end, whichever path closed it.
func TestConcurrentSubmitStatusCloseStress(t *testing.T) {
	n := newLoadNet(t, 64)
	defer n.Close()
	defer n.Orderer.Stop()
	contract := n.Gateway("org1").Network("c1").Contract("asset")
	deliver := n.Peer("org1").Deliver()
	// Warm the gateway's shared commit-status subscription first, so
	// the baseline below includes it and the final check still catches
	// any per-handle growth.
	warm, err := contract.SubmitAsync(context.Background(), "set", gateway.WithArguments("warmup", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Status(context.Background()); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	base := deliver.SubscriberCount()

	const goroutines = 12
	const perG = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("stress-%d-%d", g, i)
				commit, err := contract.SubmitAsync(ctx, "set", gateway.WithArguments(key, "v"))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d tx %d: %w", g, i, err)
					return
				}
				switch i % 3 {
				case 0: // wait, then close
					if _, err := commit.Status(ctx); err != nil {
						errs <- fmt.Errorf("goroutine %d tx %d status: %w", g, i, err)
						return
					}
					commit.Close()
				case 1: // abandon immediately
					commit.Close()
				default: // racing Status and Close
					var inner sync.WaitGroup
					inner.Add(2)
					go func() { defer inner.Done(); _, _ = commit.Status(ctx) }()
					go func() { defer inner.Done(); commit.Close() }()
					inner.Wait()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := deliver.SubscriberCount(); got != base {
		t.Fatalf("leaked deliver subscriptions: %d live, %d at baseline", got, base)
	}
}

// TestDuplicateRejectedBeforeSignatureVerification: a replayed
// transaction must be caught by the peer's sharded dedup cache in
// preValidate, before any endorsement-signature verification — the
// dedup hit counter moves and the verify-cache counters do not.
func TestDuplicateRejectedBeforeSignatureVerification(t *testing.T) {
	n := newLoadNet(t, 1)
	defer n.Close()
	defer n.Orderer.Stop()
	gw := n.Gateway("org1")
	commitPeer := n.Peer("org1")
	ctx := context.Background()

	nonce, err := ledger.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	creator := gw.Identity().Cert.Bytes()
	prop := &ledger.Proposal{
		TxID:      ledger.NewTxID(nonce, creator),
		ChannelID: "c1",
		Chaincode: "asset",
		Function:  "set",
		Args:      []string{"dup-k", "v"},
		Creator:   creator,
		Nonce:     nonce,
	}
	tx, payload, err := gw.EndorseProposal(ctx, prop, service.AsEndorsers(n.Peers()))
	if err != nil {
		t.Fatal(err)
	}

	res, err := gw.SubmitAssembled(ctx, tx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != ledger.Valid {
		t.Fatalf("first submission code = %v", res.Code)
	}

	// Snapshot the commit peer after the first copy committed: any
	// signature verification for the duplicate would move these.
	before := commitPeer.Metrics()
	verifyBefore := before[metrics.VerifyCacheHits] + before[metrics.VerifyCacheMisses]
	hitsBefore := before[metrics.DedupHits]

	dup, err := gw.SubmitAssembled(ctx, tx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Code != ledger.DuplicateTxID {
		t.Fatalf("duplicate submission code = %v, want DuplicateTxID", dup.Code)
	}

	after := commitPeer.Metrics()
	if got := after[metrics.DedupHits]; got <= hitsBefore {
		t.Fatalf("dedup_hits = %d, want > %d after a replay", got, hitsBefore)
	}
	if got := after[metrics.VerifyCacheHits] + after[metrics.VerifyCacheMisses]; got != verifyBefore {
		t.Fatalf("verify cache consulted %d times while validating a replay, want 0",
			got-verifyBefore)
	}
}

// TestAbandonedCommitsReleaseSubscriptions: SubmitAsync handles share
// the gateway's single commit-status subscription — N live handles pin
// one stream, not N (the pre-router cost: a subscription per handle,
// and the pre-fix leak before that: abandoned handles pinning theirs
// until process exit). Gateway.Close releases the shared stream.
func TestAbandonedCommitsReleaseSubscriptions(t *testing.T) {
	n := newLoadNet(t, 64)
	defer n.Close()
	defer n.Orderer.Stop()
	gw := n.Gateway("org2")
	contract := gw.Network("c1").Contract("asset")
	deliver := n.Peer("org2").Deliver()
	base := deliver.SubscriberCount()

	var handles []*gateway.Commit
	for i := 0; i < 10; i++ {
		commit, err := contract.SubmitAsync(context.Background(), "set",
			gateway.WithArguments(fmt.Sprintf("leak-%d", i), "v"))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, commit)
	}
	if got := deliver.SubscriberCount(); got != base+1 {
		t.Fatalf("SubscriberCount = %d with 10 live handles, want %d (one shared stream)", got, base+1)
	}
	for _, c := range handles {
		c.Close()
	}
	if got := deliver.SubscriberCount(); got != base+1 {
		t.Fatalf("SubscriberCount = %d after closing every handle, want %d (stream outlives handles)", got, base+1)
	}
	gw.Close()
	if got := deliver.SubscriberCount(); got != base {
		t.Fatalf("SubscriberCount = %d after Gateway Close, want %d", got, base)
	}
}

// TestAdmissionArmedAtRuntime: SetSecurity arms and disarms a live
// gateway's token bucket. Armed with one token, the second submission is
// shed with a typed ErrOverloaded carrying a retry-after hint, and
// nothing reaches the orderer; disarmed, a burst commits in full.
func TestAdmissionArmedAtRuntime(t *testing.T) {
	n := newLoadNet(t, 1)
	defer n.Close()
	defer n.Orderer.Stop()
	gw := n.Gateway("org1")
	contract := gw.Network("c1").Contract("asset")
	submit := func(key string) error {
		_, err := contract.Submit(context.Background(), "set", gateway.WithArguments(key, "v"))
		return err
	}

	sec := n.Security()
	sec.GatewayAdmissionRate, sec.GatewayAdmissionBurst = 0.001, 1
	gw.SetSecurity(sec)
	if err := submit("armed-0"); err != nil {
		t.Fatalf("submission within the burst: %v", err)
	}
	ordered := n.Orderer.Metrics()[metrics.TxOrdered]
	var oe *gateway.OverloadedError
	if err := submit("armed-1"); !errors.As(err, &oe) || !errors.Is(err, gateway.ErrOverloaded) || oe.RetryAfter <= 0 {
		t.Fatalf("submission past the burst: got %v, want ErrOverloaded with a retry-after hint", err)
	}
	if got := n.Orderer.Metrics()[metrics.TxOrdered]; got != ordered {
		t.Fatalf("tx_ordered moved %d -> %d for a shed submission", ordered, got)
	}

	sec.GatewayAdmissionRate, sec.GatewayAdmissionBurst = 0, 0
	gw.SetSecurity(sec)
	for i := 0; i < 5; i++ {
		if err := submit(fmt.Sprintf("disarmed-%d", i)); err != nil {
			t.Fatalf("submission %d after disarming: %v", i, err)
		}
	}
}
