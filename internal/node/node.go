// Package node bootstraps one multi-process deployment role: a peer,
// the ordering service, or a gateway, each running in its own OS
// process with a wire server on a TCP listener. cmd/pdcnet's role
// subcommands and the cluster integration tests are thin shells around
// StartPeer/StartOrderer/StartGateway.
//
// Every process loads the same topology (netconfig.Config) and identity
// material (netconfig.Material), so they reconstruct an identical
// channel configuration — same org CAs, same endorsement policy — and
// verify each other's signatures without sharing memory.
//
// Cross-process glue, per role:
//
//   - A peer process joins wire-backed gossip members (remoteMember)
//     for every other peer into its otherwise single-member gossip
//     network, so private data dissemination at endorsement time and
//     reconciliation pulls at commit time travel over TCP. It follows
//     the orderer's block stream (order.blocks) from its own chain
//     height and commits each block locally — the multi-process stand-in
//     for the in-process orderer delivering straight into CommitBlock.
//   - The orderer process runs consensus only; no peers are registered
//     with it, so Order returns at consensus and peers catch up through
//     their block streams.
//   - A gateway process endorses through wire PeerClients and orders
//     through a wire OrdererClient; its commit wait rides a deliver
//     stream from its commit peer's process.
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/deliver"
	"repro/internal/gateway"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/netconfig"
	"repro/internal/orderer"
	"repro/internal/peer"
	"repro/internal/rwset"
	"repro/internal/service"
	"repro/internal/wire"
)

// DialRetryTimeout bounds how long a starting role waits for its
// dependencies' listeners to come up.
const DialRetryTimeout = 10 * time.Second

// reconcileInterval paces a peer process's reconciler ticks.
const reconcileInterval = 200 * time.Millisecond

// Options configure one role process.
type Options struct {
	// Config is the shared topology document.
	Config *netconfig.Config
	// Material is the shared identity root (see netconfig.Material).
	Material *netconfig.Material
	// Name is the node's identity name: "peer0.org1", "orderer0", or a
	// client identity ("client0.org1") for a gateway.
	Name string
	// Listen is the wire server's TCP listen address ("127.0.0.1:0"
	// picks a free port; Node.Addr reports the bound address).
	Listen string
	// OrdererAddr is the orderer process's address (peers, gateways).
	OrdererAddr string
	// PeerAddrs maps peer node names to their addresses. A peer ignores
	// its own entry; a gateway connects to every entry.
	PeerAddrs map[string]string
	// TLS enables pinned-key TLS on the server and on every dial.
	TLS bool
	// SnapshotFrom names the peer (a key of PeerAddrs) an empty joining
	// peer fetches a bootstrap snapshot from when the orderer's retained
	// log no longer reaches back to genesis (orderer.ErrCompacted).
	// Empty picks the first other peer in sorted-name order.
	SnapshotFrom string
	// Log, when non-nil, receives one-line progress notes.
	Log io.Writer
}

// Node is one running role.
type Node struct {
	Role string
	// Peer is set for peer roles — the in-process component behind the
	// wire server (tests inspect its ledger directly).
	Peer *peer.Peer
	// Orderer is set for orderer roles.
	Orderer *orderer.Service
	// Gateway is set for gateway roles.
	Gateway *gateway.Gateway

	opts    Options
	server  *wire.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	mu      sync.Mutex
	closers []func()
	closed  bool
	// peerClients maps other peers' names to their dialed wire clients
	// (peer roles only) — the snapshot-bootstrap path picks one of these.
	peerClients map[string]*wire.PeerClient
}

// Addr returns the wire server's bound listen address.
func (n *Node) Addr() string { return n.server.Addr().String() }

// Close tears the role down: background loops stop, the wire server
// closes, and every dialed connection is released. Idempotent.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	closers := n.closers
	n.closers = nil
	n.mu.Unlock()
	n.cancel()
	n.server.Close()
	n.wg.Wait()
	for _, c := range closers {
		c()
	}
	if n.Orderer != nil {
		n.Orderer.Stop()
	}
}

func (n *Node) onClose(f func()) {
	n.mu.Lock()
	n.closers = append(n.closers, f)
	n.mu.Unlock()
}

func (n *Node) logf(format string, args ...any) {
	if n.opts.Log != nil {
		fmt.Fprintf(n.opts.Log, format+"\n", args...)
	}
}

// newNode builds the shared part of every role: identity, wire server,
// lifetime context.
func newNode(role string, opts Options) (*Node, *identity.Identity, context.Context, error) {
	if opts.Config == nil || opts.Material == nil {
		return nil, nil, nil, fmt.Errorf("node: %s needs Config and Material", role)
	}
	id, err := opts.Material.Identity(opts.Name)
	if err != nil {
		return nil, nil, nil, err
	}
	sopts := wire.ServerOptions{}
	if opts.TLS {
		sopts.Identity = id
	}
	srv, err := wire.NewServer(sopts)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{Role: role, opts: opts, server: srv, cancel: cancel}
	return n, id, ctx, nil
}

// clientOptions builds the dial options for reaching serverName,
// pinning its key when TLS is on.
func (n *Node) clientOptions(id *identity.Identity, serverName string) (wire.ClientOptions, error) {
	copts := wire.ClientOptions{DialTimeout: 2 * time.Second}
	if n.opts.TLS {
		key, err := n.opts.Material.ServerKey(serverName)
		if err != nil {
			return copts, err
		}
		copts.Identity = id
		copts.ServerKey = key
	}
	return copts, nil
}

// dialRetry dials until the listener answers or the timeout elapses —
// roles of one cluster start concurrently, so the first dials race the
// target's Listen.
func dialRetry(ctx context.Context, addr string, copts wire.ClientOptions) (*wire.Client, error) {
	deadline := time.Now().Add(DialRetryTimeout)
	for {
		c, err := wire.Dial(addr, copts)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("node: dial %s: %w", addr, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// StartOrderer runs the ordering service behind a wire server. No peers
// register with it: blocks reach peer processes through their
// order.blocks streams.
func StartOrderer(opts Options) (*Node, error) {
	n, _, _, err := newNode("orderer", opts)
	if err != nil {
		return nil, err
	}
	cfg := opts.Config
	n.Orderer = orderer.New(orderer.Config{
		OrdererCount: cfg.OrdererCount,
		BatchSize:    cfg.BatchSize,
		RetainBlocks: cfg.RetainBlocks,
		Seed:         cfg.Seed,
	})
	wire.RegisterOrderer(n.server, n.Orderer)
	if err := n.server.Listen(opts.Listen); err != nil {
		n.Orderer.Stop()
		return nil, err
	}
	n.logf("orderer %s listening on %s", opts.Name, n.Addr())
	return n, nil
}

// StartPeer runs one peer behind a wire server: chaincodes installed
// from the topology, remote gossip members joined for every other peer,
// a block-follow loop committing the orderer's stream, and a reconciler
// ticker recovering missing private data over the wire.
func StartPeer(opts Options) (*Node, error) {
	n, id, ctx, err := newNode("peer", opts)
	if err != nil {
		return nil, err
	}
	gnet := gossip.NewNetwork()
	p, err := peer.New(peer.Config{
		Identity: id,
		Channel:  opts.Material.ChannelConfig(),
		Gossip:   gnet,
		Security: opts.Config.SecurityConfig(),
	})
	if err != nil {
		return nil, err
	}
	n.Peer = p
	// Surface the process's transport counters through the peer's
	// metrics endpoint.
	p.RegisterMetricsSource(wire.MetricsSnapshot)
	if err := installChaincodes(opts.Config, p); err != nil {
		return nil, err
	}
	wire.RegisterPeer(n.server, p)
	if err := n.server.Listen(opts.Listen); err != nil {
		return nil, err
	}

	// Join a wire-backed gossip member for every other peer, so
	// dissemination pushes and reconciliation pulls cross process
	// boundaries. Deterministic order keeps fan-out selection stable.
	for _, name := range sortedNames(opts.PeerAddrs) {
		if name == opts.Name {
			continue
		}
		copts, err := n.clientOptions(id, name)
		if err != nil {
			n.Close()
			return nil, err
		}
		c, err := dialRetry(ctx, opts.PeerAddrs[name], copts)
		if err != nil {
			n.Close()
			return nil, err
		}
		pc, err := wire.NewPeerClient(c)
		if err != nil {
			c.Close()
			n.Close()
			return nil, err
		}
		n.onClose(pc.Close)
		if n.peerClients == nil {
			n.peerClients = make(map[string]*wire.PeerClient)
		}
		n.peerClients[name] = pc
		gnet.Join(&remoteMember{pc: pc})
		n.logf("peer %s gossips with %s at %s", opts.Name, name, opts.PeerAddrs[name])
	}

	if opts.OrdererAddr != "" {
		copts, err := n.clientOptions(id, netconfig.OrdererNode)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.wg.Add(1)
		go n.followBlocks(ctx, copts)
	}
	n.wg.Add(1)
	go n.reconcileLoop(ctx)
	n.logf("peer %s listening on %s", opts.Name, n.Addr())
	return n, nil
}

// StartGateway runs a gateway behind a wire server, endorsing through
// every peer in PeerAddrs and ordering through OrdererAddr. The commit
// peer defaults to the gateway identity's own org (gateway.Connect's
// rule), so commit waits ride a same-org deliver stream.
func StartGateway(opts Options) (*Node, error) {
	n, id, ctx, err := newNode("gateway", opts)
	if err != nil {
		return nil, err
	}
	if opts.OrdererAddr == "" {
		return nil, fmt.Errorf("node: gateway needs OrdererAddr")
	}
	ocopts, err := n.clientOptions(id, netconfig.OrdererNode)
	if err != nil {
		return nil, err
	}
	oc, err := dialRetry(ctx, opts.OrdererAddr, ocopts)
	if err != nil {
		return nil, err
	}
	ordClient := wire.NewOrdererClient(oc)
	n.onClose(ordClient.Close)

	var peers []service.Peer
	for _, name := range sortedNames(opts.PeerAddrs) {
		copts, err := n.clientOptions(id, name)
		if err != nil {
			n.Close()
			return nil, err
		}
		c, err := dialRetry(ctx, opts.PeerAddrs[name], copts)
		if err != nil {
			n.Close()
			return nil, err
		}
		pc, err := wire.NewPeerClient(c)
		if err != nil {
			c.Close()
			n.Close()
			return nil, err
		}
		n.onClose(pc.Close)
		peers = append(peers, pc)
	}
	if len(peers) == 0 {
		n.Close()
		return nil, fmt.Errorf("node: gateway needs at least one peer address")
	}
	n.Gateway = gateway.Connect(id, gateway.Options{
		Verifier: opts.Material.ChannelConfig().Verifier(),
		Orderer:  ordClient,
		Security: opts.Config.SecurityConfig(),
	}, peers...)
	wire.RegisterGateway(n.server, n.Gateway)
	if err := n.server.Listen(opts.Listen); err != nil {
		n.Close()
		return nil, err
	}
	n.logf("gateway %s listening on %s (%d peers)", opts.Name, n.Addr(), len(peers))
	return n, nil
}

// followBlocks streams ordered blocks from the peer's current height
// and commits them, redialing when the stream or connection drops. When
// the orderer's retained log has been compacted past the peer's height,
// an empty peer bootstraps from another peer's snapshot and resumes the
// stream from the installed height — the O(state) cold-join path.
func (n *Node) followBlocks(ctx context.Context, copts wire.ClientOptions) {
	defer n.wg.Done()
	for ctx.Err() == nil {
		c, err := dialRetry(ctx, n.opts.OrdererAddr, copts)
		if err != nil {
			return
		}
		oc := wire.NewOrdererClient(c)
		stream, err := oc.Blocks(ctx, n.Peer.Ledger().Height())
		if err != nil {
			oc.Close()
			if errors.Is(err, orderer.ErrCompacted) {
				if n.Peer.Ledger().Height() == 0 {
					if berr := n.bootstrapFromSnapshot(ctx); berr != nil {
						n.logf("peer %s: snapshot bootstrap: %v", n.opts.Name, berr)
					} else {
						continue // resubscribe from the installed height
					}
				} else {
					// A non-empty peer behind the retained window cannot be
					// healed in place; snapshot install requires a fresh peer.
					n.logf("peer %s: orderer log compacted past height %d; restart empty to snapshot-join",
						n.opts.Name, n.Peer.Ledger().Height())
				}
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		n.pumpBlocks(ctx, stream)
		stream.Close()
		oc.Close()
	}
}

// bootstrapFromSnapshot fetches a snapshot artifact from another peer
// process over the wire (peer.snapshot.meta / peer.snapshot.chunks) and
// installs it, bringing an empty peer to the source's commit height
// without replaying the chain. The caller resumes the block stream from
// the installed height afterwards.
func (n *Node) bootstrapFromSnapshot(ctx context.Context) error {
	source := n.opts.SnapshotFrom
	if source == "" {
		for _, name := range sortedNames(n.opts.PeerAddrs) {
			if name != n.opts.Name {
				source = name
				break
			}
		}
	}
	pc, ok := n.peerClients[source]
	if !ok {
		return fmt.Errorf("node: no peer client for snapshot source %q", source)
	}
	parent, err := os.MkdirTemp("", "pdc-snapshot-join-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parent)
	dir := filepath.Join(parent, "snap")
	m, err := pc.FetchSnapshot(ctx, dir)
	if err != nil {
		return fmt.Errorf("node: fetch snapshot from %s: %w", source, err)
	}
	if err := n.Peer.InstallSnapshot(dir); err != nil {
		return fmt.Errorf("node: install snapshot from %s: %w", source, err)
	}
	n.logf("peer %s bootstrapped from snapshot of %s at height %d (%d chunks)",
		n.opts.Name, source, m.Height, len(m.Chunks))
	return nil
}

// pumpBlocks commits one stream's blocks until it ends or ctx cancels.
func (n *Node) pumpBlocks(ctx context.Context, stream service.Stream) {
	for {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				return
			}
			be, isBlock := ev.(*deliver.BlockEvent)
			if !isBlock || be.Block == nil {
				continue
			}
			if be.Block.Header.Number < n.Peer.Ledger().Height() {
				continue // replayed below our height after a redial
			}
			if err := n.Peer.CommitBlock(be.Block); err != nil {
				n.logf("peer %s: commit block %d: %v", n.opts.Name, be.Block.Header.Number, err)
			}
		case <-ctx.Done():
			return
		}
	}
}

// reconcileLoop ticks the peer's reconciler so private data missed at
// commit time is pulled from remote members over the wire.
func (n *Node) reconcileLoop(ctx context.Context) {
	defer n.wg.Done()
	t := time.NewTicker(reconcileInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			n.Peer.TickReconcile()
		case <-ctx.Done():
			return
		}
	}
}

// installChaincodes approves and installs every configured chaincode on
// one peer — the per-process half of Network.DeployChaincode.
func installChaincodes(cfg *netconfig.Config, p *peer.Peer) error {
	for i := range cfg.Chaincodes {
		cc := &cfg.Chaincodes[i]
		impl, err := cc.Implementation()
		if err != nil {
			return err
		}
		if err := p.ApproveDefinition(cc.Definition()); err != nil {
			return err
		}
		p.InstallChaincode(cc.Name, impl)
	}
	return nil
}

// sortedNames returns the map's keys in deterministic order.
func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// remoteMember adapts a wire PeerClient onto the gossip.Member surface,
// making a peer in another process a first-class gossip participant:
// Disseminate pushes travel as peer.pvtpush calls, reconciliation pulls
// as peer.pvt calls. The interface is synchronous and error-free, so
// failures degrade to "member had nothing" — exactly how the in-process
// network treats a dropped delivery, and what the reconciler retries
// around.
type remoteMember struct {
	pc *wire.PeerClient
}

var _ gossip.Member = (*remoteMember)(nil)

func (r *remoteMember) GossipName() string { return r.pc.Name() }
func (r *remoteMember) GossipOrg() string  { return r.pc.Org() }

func (r *remoteMember) ReceivePrivateData(set *rwset.TxPvtRWSet) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	r.pc.PushPrivateData(ctx, set)
}

func (r *remoteMember) ServePrivateData(txID, collection string) *rwset.CollPvtRWSet {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	set, err := r.pc.FetchPrivateData(ctx, txID, collection)
	if err != nil {
		return nil
	}
	return set
}

// ParsePeerAddrs parses the "name=addr,name=addr" list the role
// subcommands and PDC_WIRE_PEERS env variable use.
func ParsePeerAddrs(s string) (map[string]string, error) {
	out := make(map[string]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("node: bad peer address %q (want name=addr)", part)
		}
		out[name] = addr
	}
	return out, nil
}

// FormatPeerAddrs is ParsePeerAddrs's inverse.
func FormatPeerAddrs(m map[string]string) string {
	parts := make([]string, 0, len(m))
	for _, name := range sortedNames(m) {
		parts = append(parts, name+"="+m[name])
	}
	return strings.Join(parts, ",")
}
