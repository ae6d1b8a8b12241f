// Restart: run a peer on the durable storage backend, crash it without
// a clean shutdown, then bring a brand-new peer process up over the same
// directory and watch recovery (docs/STORAGE.md §7) rebuild the chain,
// the world state and the private-data bookkeeping — byte-identical to
// the state before the crash.
//
// Run with: go run ./examples/restart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/chaincode"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/network"
	"repro/internal/peer"
	"repro/internal/pvtdata"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "pdc-restart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// 1. A three-org network; its built-in peers stay in-memory, and one
	// extra durable org2 peer persists everything it commits under dir.
	net, err := network.New(network.Options{
		Orgs: []string{"org1", "org2", "org3"},
		Seed: 7,
	})
	if err != nil {
		return err
	}
	def := &chaincode.Definition{
		Name:    "asset",
		Version: "1.0",
		Collections: []pvtdata.CollectionConfig{{
			Name:         "pdc1",
			MemberPolicy: "OR(org1.member, org2.member)",
			MaxPeerCount: 3,
		}},
	}
	impl := contracts.NewPublicAsset()
	for name, fn := range contracts.NewPDC(contracts.PDCOptions{Collection: "pdc1"}) {
		impl[name] = fn
	}
	if err := net.DeployChaincode(def, impl); err != nil {
		return err
	}

	mkDurable := func() (*peer.Peer, error) {
		id, err := net.CA("org2").Issue("peer9.org2", "peer")
		if err != nil {
			return nil, err
		}
		sec := core.OriginalFabric()
		sec.StorageBackend = "durable"
		sec.StorageDir = dir
		p, err := peer.New(peer.Config{
			Identity: id,
			Channel:  net.Channel,
			Gossip:   net.Gossip,
			Security: sec,
		})
		if err != nil {
			return nil, err
		}
		if err := p.ApproveDefinition(def); err != nil {
			return nil, err
		}
		p.InstallChaincode("asset", impl)
		return p, nil
	}
	durable, err := mkDurable()
	if err != nil {
		return err
	}
	net.Orderer.RegisterDelivery(func(b *ledger.Block) { _ = durable.CommitBlock(b) })
	fmt.Printf("== durable peer %s writes under %s ==\n", durable.Name(), dir)

	// 2. Commit public and private transactions; the durable peer appends
	// every block to its block log and flushes the resulting state
	// mutations to its state log before CommitBlock returns.
	ctx := context.Background()
	contract := net.Gateway("org1").Network("c1").Contract("asset")
	if _, err := contract.Submit(ctx, "set", gateway.WithArguments("color", "blue")); err != nil {
		return err
	}
	if _, err := contract.Submit(ctx, "setPrivate",
		gateway.WithArguments("price", "99"),
		gateway.WithEndorsers(net.Peer("org1"), net.Peer("org2"))); err != nil {
		return err
	}
	if _, err := contract.Submit(ctx, "set", gateway.WithArguments("owner", "org2")); err != nil {
		return err
	}

	before := durable.WorldState().StateHash()
	fmt.Printf("committed height %d, state hash %x\n", durable.Ledger().Height(), before[:8])
	showDir(filepath.Join(dir, durable.Name()))

	// 3. "Crash" the peer: drop it on the floor without Close. The logs
	// on disk are the only survivors — exactly the power-loss scenario
	// the recovery path is specified against.
	fmt.Println("\n== crash: abandoning the peer without a clean shutdown ==")
	durable = nil

	// 4. A brand-new peer object over the same directory. Restore reads
	// the block log, installs durable state up to the watermark and
	// replays anything above it through the validator.
	restarted, err := mkDurable()
	if err != nil {
		return err
	}
	if err := restarted.Restore(); err != nil {
		return err
	}
	after := restarted.WorldState().StateHash()
	fmt.Printf("recovered height %d, state hash %x\n", restarted.Ledger().Height(), after[:8])
	if !bytes.Equal(before, after) {
		return fmt.Errorf("state hash changed across restart")
	}
	fmt.Println("state hash byte-identical across the restart")

	if v, ver, ok := restarted.WorldState().Get("asset", "color"); ok {
		fmt.Printf("public state survives: color=%s @v%d\n", v, ver)
	}
	if _, ver, ok := restarted.PvtStore().GetPrivateHash("asset", "pdc1", "price"); ok {
		fmt.Printf("private hash survives: price @v%d\n", ver)
	}
	if restarted.Ledger().VerifyChain() != -1 {
		return fmt.Errorf("recovered chain broken")
	}
	fmt.Println("hash chain verifies end to end")
	return restarted.Close()
}

// showDir prints the on-disk layout the durable backend maintains —
// blocks/, state/ and pvt/ mounts, each an append-only segment log.
func showDir(root string) {
	fmt.Println("on-disk layout:")
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Printf("  %-28s %6d bytes\n", rel, info.Size())
		return nil
	})
}
