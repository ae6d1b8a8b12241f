// Package network assembles complete Fabric networks: organizations with
// CAs, peers, clients, a Raft ordering service and a gossip fabric, wired
// together in-process. It is the reproduction's equivalent of the
// fabric-samples "test network" the paper builds its prototypes on
// (§V: "We build prototype systems following the test-network guideline").
package network

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/chaincode"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/deliver"
	"repro/internal/gateway"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/orderer"
	"repro/internal/peer"
	"repro/internal/service"
)

// Options configures a network build.
type Options struct {
	// ChannelName defaults to "c1".
	ChannelName string
	// Orgs are the organization names; each contributes PeersPerOrg
	// peers ("peer<i>.<org>") and one client ("client0.<org>").
	Orgs []string
	// PeersPerOrg is how many peers each organization runs (default 1).
	PeersPerOrg int
	// DefaultEndorsement overrides the channel default policy rule
	// (default "MAJORITY Endorsement").
	DefaultEndorsement string
	// OrdererCount sizes the Raft cluster (default 3).
	OrdererCount int
	// BatchSize is the orderer block-cut threshold (default 1); the
	// orderer cuts a smaller block whenever its queue runs dry.
	BatchSize int
	// Security selects the active defense features for every node.
	Security core.SecurityConfig
	// Seed drives deterministic Raft jitter.
	Seed int64
	// CAs, when set, supplies pre-existing organization CAs instead of
	// creating fresh ones — used by the consortium package so the same
	// organizations can join multiple channels with one identity root.
	CAs map[string]*identity.CA
}

// Network is a running in-process Fabric network.
type Network struct {
	Channel *channel.Config
	Orderer *orderer.Service
	Gossip  *gossip.Network

	cas      map[string]*identity.CA
	peers    map[string]*peer.Peer       // "peer0.org1" -> peer
	gateways map[string]*gateway.Gateway // org -> gateway
	orgs     []string
	sec      core.SecurityConfig
}

// New builds and starts a network per the options.
func New(opts Options) (*Network, error) {
	if len(opts.Orgs) == 0 {
		return nil, fmt.Errorf("network: no organizations")
	}
	name := opts.ChannelName
	if name == "" {
		name = "c1"
	}

	n := &Network{
		cas:      make(map[string]*identity.CA),
		peers:    make(map[string]*peer.Peer),
		gateways: make(map[string]*gateway.Gateway),
		orgs:     append([]string(nil), opts.Orgs...),
		sec:      opts.Security,
	}
	sort.Strings(n.orgs)

	var orgCfgs []channel.OrgConfig
	for _, org := range n.orgs {
		ca := opts.CAs[org]
		if ca == nil {
			var err error
			ca, err = identity.NewCA(org)
			if err != nil {
				return nil, fmt.Errorf("network: %w", err)
			}
		}
		n.cas[org] = ca
		orgCfgs = append(orgCfgs, channel.OrgConfig{Name: org, CAPub: ca.PublicKey()})
	}
	n.Channel = channel.NewConfig(name, orgCfgs...)
	if opts.DefaultEndorsement != "" {
		n.Channel.DefaultEndorsement = opts.DefaultEndorsement
	}

	n.Gossip = gossip.NewNetwork()
	n.Orderer = orderer.New(orderer.Config{
		OrdererCount: opts.OrdererCount,
		BatchSize:    opts.BatchSize,
		Seed:         opts.Seed,
	})

	peersPerOrg := opts.PeersPerOrg
	if peersPerOrg <= 0 {
		peersPerOrg = 1
	}
	verifier := n.Channel.Verifier()

	// First pass: bring up every peer of every organization, so the
	// clients and gateways created afterwards can span organizations
	// (cross-org endorsement sets and commit streams).
	anchors := make(map[string]*peer.Peer, len(n.orgs))
	for _, org := range n.orgs {
		for i := 0; i < peersPerOrg; i++ {
			peerID, err := n.cas[org].Issue(fmt.Sprintf("peer%d.%s", i, org), identity.RolePeer)
			if err != nil {
				return nil, fmt.Errorf("network: %w", err)
			}
			p, err := peer.New(peer.Config{
				Identity: peerID,
				Channel:  n.Channel,
				Gossip:   n.Gossip,
				Security: opts.Security,
			})
			if err != nil {
				return nil, fmt.Errorf("network: %w", err)
			}
			n.peers[p.Name()] = p
			n.Orderer.RegisterDelivery(func(b *ledger.Block) { _ = p.CommitBlock(b) })
			if anchors[org] == nil {
				anchors[org] = p
			}
		}
	}

	// Second pass: one client identity per organization, connected
	// through a Gateway whose default endorsement set is every peer in
	// the network and whose commit stream comes from the org's own
	// anchor peer.
	for _, org := range n.orgs {
		clientID, err := n.cas[org].Issue("client0."+org, identity.RoleClient)
		if err != nil {
			return nil, fmt.Errorf("network: %w", err)
		}
		n.gateways[org] = gateway.Connect(clientID, gateway.Options{
			Verifier:   verifier,
			Orderer:    n.Orderer,
			Security:   opts.Security,
			CommitPeer: anchors[org],
		}, service.AsPeers(n.Peers())...)
	}
	return n, nil
}

// JoinPeer adds a new peer of an existing organization to a running
// network: it issues an identity, lets setup approve chaincode
// definitions and install implementations, then replays every block cut
// so far and subscribes to future deliveries — a late join with state
// catch-up, as Fabric peers do through the deliver service.
func (n *Network) JoinPeer(org, name string, setup func(*peer.Peer) error) (*peer.Peer, error) {
	ca := n.cas[org]
	if ca == nil {
		return nil, fmt.Errorf("network: unknown org %q", org)
	}
	peerID, err := ca.Issue(name, identity.RolePeer)
	if err != nil {
		return nil, fmt.Errorf("network: join peer: %w", err)
	}
	p, err := peer.New(peer.Config{
		Identity: peerID,
		Channel:  n.Channel,
		Gossip:   n.Gossip,
		Security: n.sec,
	})
	if err != nil {
		return nil, fmt.Errorf("network: join peer: %w", err)
	}
	if setup != nil {
		if err := setup(p); err != nil {
			return nil, fmt.Errorf("network: join peer setup: %w", err)
		}
	}
	// Queue live deliveries that race the catch-up replay, so the peer
	// commits blocks strictly in order.
	var mu sync.Mutex
	caughtUp := false
	var queued []*ledger.Block
	backlog, _ := n.Orderer.Subscribe(func(b *ledger.Block) {
		mu.Lock()
		defer mu.Unlock()
		if !caughtUp {
			queued = append(queued, b)
			return
		}
		_ = p.CommitBlock(b)
	})
	mu.Lock()
	defer mu.Unlock()
	for _, b := range append(backlog, queued...) {
		if err := p.CommitBlock(b); err != nil {
			return nil, fmt.Errorf("network: join peer catch-up: %w", err)
		}
	}
	caughtUp = true
	n.peers[p.Name()] = p
	// Every org gateway learns the new peer: it joins their default
	// endorsement sets and becomes resolvable by name.
	for _, g := range n.gateways {
		g.AddPeer(p)
	}
	return p, nil
}

// JoinPeerFromSnapshot adds a new peer that bootstraps from a snapshot
// artifact instead of replaying the chain from genesis: the verified
// artifact is installed (world state, tombstones, purge schedule,
// missing records, chain base), then only blocks from the snapshot
// height onward flow through the validator — an O(state) join instead
// of O(chain). The residual catch-up comes from the orderer's retained
// window; when that window has been compacted past the snapshot height,
// the gap is replayed from the source peer's delivery service first.
// The source should be a peer with the same collection memberships as
// the joiner (snapshots carry the exporter's private namespaces).
func (n *Network) JoinPeerFromSnapshot(org, name, dir string, source *peer.Peer, setup func(*peer.Peer) error) (*peer.Peer, error) {
	ca := n.cas[org]
	if ca == nil {
		return nil, fmt.Errorf("network: unknown org %q", org)
	}
	peerID, err := ca.Issue(name, identity.RolePeer)
	if err != nil {
		return nil, fmt.Errorf("network: join peer: %w", err)
	}
	p, err := peer.New(peer.Config{
		Identity: peerID,
		Channel:  n.Channel,
		Gossip:   n.Gossip,
		Security: n.sec,
	})
	if err != nil {
		return nil, fmt.Errorf("network: join peer: %w", err)
	}
	if setup != nil {
		if err := setup(p); err != nil {
			return nil, fmt.Errorf("network: join peer setup: %w", err)
		}
	}
	if err := p.InstallSnapshot(dir); err != nil {
		return nil, fmt.Errorf("network: join peer: %w", err)
	}

	// Queue live deliveries that race the catch-up, exactly as JoinPeer.
	var mu sync.Mutex
	caughtUp := false
	var queued []*ledger.Block
	handler := func(b *ledger.Block) {
		mu.Lock()
		defer mu.Unlock()
		if !caughtUp {
			queued = append(queued, b)
			return
		}
		_ = p.CommitBlock(b)
	}

	backlog, _, err := n.Orderer.SubscribeFrom(p.Ledger().Height(), handler)
	for attempt := 0; errors.Is(err, orderer.ErrCompacted) && source != nil && attempt < 3; attempt++ {
		// The orderer compacted past the snapshot height: pull the gap
		// from the source peer's delivery service (replayed block
		// events), then retry the live subscription.
		if cerr := catchUpFromPeer(p, source, n.Orderer.FirstBlock()); cerr != nil {
			return nil, fmt.Errorf("network: join peer catch-up from %s: %w", source.Name(), cerr)
		}
		backlog, _, err = n.Orderer.SubscribeFrom(p.Ledger().Height(), handler)
	}
	if err != nil {
		return nil, fmt.Errorf("network: join peer: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, b := range append(backlog, queued...) {
		if err := p.CommitBlock(b); err != nil {
			return nil, fmt.Errorf("network: join peer catch-up: %w", err)
		}
	}
	caughtUp = true
	n.peers[p.Name()] = p
	for _, g := range n.gateways {
		g.AddPeer(p)
	}
	return p, nil
}

// catchUpFromPeer replays committed blocks [p's height, target) from
// the source peer's delivery stream into p's validator.
func catchUpFromPeer(p, source *peer.Peer, target uint64) error {
	from := p.Ledger().Height()
	if from >= target {
		return nil
	}
	sub, err := source.Deliver().Subscribe(from)
	if err != nil {
		return err
	}
	defer sub.Close()
	for p.Ledger().Height() < target {
		ev, err := sub.Recv(context.Background())
		if err != nil {
			return err
		}
		be, ok := ev.(*deliver.BlockEvent)
		if !ok {
			continue
		}
		if err := p.CommitBlock(be.Block); err != nil {
			return err
		}
	}
	return nil
}

// Peer returns the organization's anchor peer, "peer0.<org>".
func (n *Network) Peer(org string) *peer.Peer {
	return n.peers["peer0."+org]
}

// PeerNamed returns a peer by full node name, e.g. "peer1.org2".
func (n *Network) PeerNamed(name string) *peer.Peer {
	return n.peers[name]
}

// OrgPeers returns all peers of one organization, sorted by name.
func (n *Network) OrgPeers(org string) []*peer.Peer {
	var out []*peer.Peer
	for _, p := range n.Peers() {
		if p.Org() == org {
			out = append(out, p)
		}
	}
	return out
}

// Gateway returns the organization's gateway connection: the Gateway-style
// client API over the same "client0.<org>" identity, endorsing through
// every peer by default and watching the org's anchor peer for commit
// status.
func (n *Network) Gateway(org string) *gateway.Gateway {
	return n.gateways[org]
}

// Peers returns all peers sorted by name.
func (n *Network) Peers() []*peer.Peer {
	names := make([]string, 0, len(n.peers))
	for name := range n.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*peer.Peer, len(names))
	for i, name := range names {
		out[i] = n.peers[name]
	}
	return out
}

// Orgs returns the sorted organization names.
func (n *Network) Orgs() []string { return append([]string(nil), n.orgs...) }

// CA returns an organization's certificate authority, for issuing extra
// identities in tests and attack harnesses.
func (n *Network) CA(org string) *identity.CA { return n.cas[org] }

// DeployChaincode approves the definition on every peer and installs the
// given implementation on every peer (the honest, uniform deployment).
// Use Peer(org).InstallChaincode to override individual peers with
// customized — or malicious — variants afterwards.
func (n *Network) DeployChaincode(def *chaincode.Definition, impl chaincode.Chaincode) error {
	for _, p := range n.peers {
		if err := p.ApproveDefinition(def); err != nil {
			return err
		}
		p.InstallChaincode(def.Name, impl)
	}
	return nil
}

// SetSecurity swaps the security configuration on every node.
func (n *Network) SetSecurity(sec core.SecurityConfig) {
	n.sec = sec
	for _, p := range n.peers {
		p.SetSecurity(sec)
	}
	for _, g := range n.gateways {
		g.SetSecurity(sec)
	}
}

// Security returns the network's current security configuration.
func (n *Network) Security() core.SecurityConfig { return n.sec }

// Close releases every org gateway's commit-status subscription and
// every peer's storage backend. Networks built without a StorageBackend
// hold no storage resources, but gateway subscriptions are still freed.
func (n *Network) Close() error {
	for _, g := range n.gateways {
		g.Close()
	}
	var first error
	for _, p := range n.Peers() {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
