// Multi-process deployment subcommands: keygen writes identity
// material, peer/orderer/gateway run one role each behind a TCP wire
// server, and up launches a whole loopback cluster as separate OS
// processes — the reproduction's docker-compose.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/netconfig"
	"repro/internal/node"
	"repro/internal/pvtdata"
	"repro/internal/service"
)

// defaultClusterConfig mirrors the in-process demo topology: three
// orgs, one peer each, an "asset" chaincode whose "pdc1" collection is
// shared by org1 and org2.
func defaultClusterConfig() *netconfig.Config {
	return &netconfig.Config{
		Orgs: []string{"org1", "org2", "org3"},
		Seed: 1,
		Chaincodes: []netconfig.Chaincode{{
			Name:    "asset",
			Version: "1.0",
			Collections: []pvtdata.CollectionConfig{{
				Name:         "pdc1",
				MemberPolicy: "OR(org1.member, org2.member)",
				MaxPeerCount: 3,
			}},
			Contract:   "merged",
			Collection: "pdc1",
		}},
	}
}

func loadOrDefaultConfig(path string) (*netconfig.Config, error) {
	if path != "" {
		return netconfig.Load(path)
	}
	cfg := defaultClusterConfig()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// runKeygen implements `pdcnet keygen`: generate the cluster's identity
// material file (org CAs plus every node identity).
func runKeygen(args []string) error {
	fs := flag.NewFlagSet("pdcnet keygen", flag.ContinueOnError)
	configPath := fs.String("config", "", "topology JSON (defaults to the built-in 3-org layout)")
	out := fs.String("out", "material.json", "output path for the material file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := loadOrDefaultConfig(*configPath)
	if err != nil {
		return err
	}
	m, err := cfg.GenerateMaterial()
	if err != nil {
		return err
	}
	if err := m.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: channel %q, %d orgs, %d identities\n", *out, m.Channel, len(m.Orgs), len(m.Identities))
	return nil
}

// runRole implements `pdcnet peer|orderer|gateway`: one role process.
func runRole(role string, args []string) error {
	return runRoleNamed("pdcnet "+role, role, args)
}

// runJoin implements `pdcnet join`: start a peer whose empty ledger
// bootstraps from another peer's snapshot when the orderer's retained
// log no longer reaches back to genesis — the O(state) cold-join path
// (docs/SNAPSHOT.md). It is the peer role plus a -snapshot-from flag.
func runJoin(args []string) error {
	return runRoleNamed("pdcnet join", "peer", args)
}

func runRoleNamed(cmd, role string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	configPath := fs.String("config", "", "topology JSON (defaults to the built-in 3-org layout)")
	materialPath := fs.String("material", "material.json", "identity material file (pdcnet keygen)")
	name := fs.String("name", "", "node identity name, e.g. peer0.org1")
	listen := fs.String("listen", "127.0.0.1:0", "TCP listen address")
	ordererAddr := fs.String("orderer", "", "orderer address (peer and gateway roles)")
	peers := fs.String("peers", "", "peer addresses as name=addr,name=addr")
	tlsOn := fs.Bool("tls", false, "pinned-key TLS on the listener and every dial")
	var snapshotFrom *string
	if role == "peer" {
		snapshotFrom = fs.String("snapshot-from", "",
			"peer to fetch the bootstrap snapshot from when the orderer log is compacted (default: first peer in -peers)")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := loadOrDefaultConfig(*configPath)
	if err != nil {
		return err
	}
	material, err := netconfig.LoadMaterial(*materialPath)
	if err != nil {
		return err
	}
	peerAddrs, err := node.ParsePeerAddrs(*peers)
	if err != nil {
		return err
	}
	opts := node.Options{
		Config:      cfg,
		Material:    material,
		Name:        *name,
		Listen:      *listen,
		OrdererAddr: *ordererAddr,
		PeerAddrs:   peerAddrs,
		TLS:         *tlsOn,
		Log:         os.Stderr,
	}
	if snapshotFrom != nil {
		opts.SnapshotFrom = *snapshotFrom
	}
	return node.Run(role, opts)
}

// runUp implements `pdcnet up`: launch the cluster, run a smoke
// transaction through the wire gateway, print every peer's state, and
// keep the cluster running until interrupted.
func runUp(args []string) error {
	fs := flag.NewFlagSet("pdcnet up", flag.ContinueOnError)
	configPath := fs.String("config", "", "topology JSON (defaults to the built-in 3-org layout)")
	tlsOn := fs.Bool("tls", false, "pinned-key TLS between every process")
	dir := fs.String("dir", "", "working directory for material/config (default: a temp dir)")
	smoke := fs.Bool("smoke", true, "submit a smoke transaction after launch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := loadOrDefaultConfig(*configPath)
	if err != nil {
		return err
	}
	workDir := *dir
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "pdcnet-up-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(workDir)
	}
	fmt.Printf("== launching cluster (%d orgs, tls=%v) ==\n", len(cfg.Orgs), *tlsOn)
	cl, err := node.LaunchCluster(cfg, node.LaunchOptions{
		Dir:    workDir,
		TLS:    *tlsOn,
		Stderr: os.Stderr,
	})
	if err != nil {
		return err
	}
	defer cl.Stop()
	fmt.Printf("orderer  %s\n", cl.OrdererAddr)
	for _, name := range cl.PeerNames() {
		fmt.Printf("peer     %s at %s\n", name, cl.PeerAddrs[name])
	}
	fmt.Printf("gateway  %s\n", cl.GatewayAddr)

	if *smoke {
		if err := smokeTransaction(cl); err != nil {
			return fmt.Errorf("smoke transaction: %w", err)
		}
	}
	fmt.Println("\ncluster up — Ctrl-C to stop")
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	return nil
}

// smokeTransaction submits one public write through the wire gateway
// and prints each peer's resulting height and state hash.
func smokeTransaction(cl *node.Cluster) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	gwc, err := cl.DialGateway()
	if err != nil {
		return err
	}
	defer gwc.Close()
	cc := cl.Config.Chaincodes
	if len(cc) == 0 {
		fmt.Println("no chaincodes configured; skipping smoke transaction")
		return nil
	}
	fmt.Printf("\n== smoke: set(color, blue) on %q through the wire gateway ==\n", cc[0].Name)
	res, err := gwc.Submit(ctx, service.NewInvoke(cc[0].Name, "set", "color", "blue"))
	if err != nil {
		return err
	}
	fmt.Printf("tx %s -> %v in block %d\n", short(res.TxID), res.Code, res.BlockNum)
	for _, name := range cl.PeerNames() {
		pc, err := cl.DialPeer(name)
		if err != nil {
			return err
		}
		info, err := pc.Info(ctx)
		pc.Close()
		if err != nil {
			return err
		}
		fmt.Printf("  %s: height=%d state=%s\n", name, info.Height, short(info.StateHash))
	}
	return nil
}
