package main

// sut.go is the benchmark's only file that imports repro/internal/...:
// it builds the system under test, drives it through the layers' public
// functions, decorates the service boundaries for the traced pass and
// replays captured blocks through single layers. A PR that moves an API
// has this one file to touch.

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deliver"
	"repro/internal/gateway"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netconfig"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/peer"
	"repro/internal/pvtdata"
	"repro/internal/rwset"
	"repro/internal/service"
	"repro/internal/statedb"
	"repro/internal/storage"
	"repro/internal/wire"
)

var orgs = []string{"org1", "org2", "org3"}

// memberOrgs are the collection members in pdc_mixed; org3 is the
// non-member whose peer must never hold a private value.
var memberOrgs = []string{"org1", "org2"}

// runRoleFromEnv turns this process into a cluster role when the
// launcher's environment says so (wire_durable re-executes the binary).
func runRoleFromEnv() (bool, error) { return node.RunRoleFromEnv() }

// txOutcome is a transaction's final commit status.
type txOutcome struct {
	txID    string
	valid   bool
	code    string
	block   uint64
	payload []byte
}

// client is one SDK-style connection to the system.
type client interface {
	// submit drives one transaction to its commit status: SubmitAsync then
	// Status when tr is nil, the staged public calls stamping tr otherwise.
	submit(ctx context.Context, o *op, tr *opTrace) (txOutcome, error)
	evaluate(ctx context.Context, o *op, tr *opTrace) ([]byte, error)
}

// retryable reports errors an SDK caller answers by resubmitting.
func retryable(err error) bool {
	return errors.Is(err, gateway.ErrEndorsementMismatch) || errors.Is(err, gateway.ErrOverloaded)
}

func outcome(res *service.SubmitResult) txOutcome {
	return txOutcome{
		txID:    res.TxID,
		valid:   res.Code == ledger.Valid,
		code:    res.Code.String(),
		block:   res.BlockNum,
		payload: res.Payload,
	}
}

// system is one built and warmed-up system under test.
type system struct {
	w       *workload
	clients []client
	obs     *observer // nil unless built for a traced run
	cfg     *netconfig.Config
	dir     string // run directory (cluster material, storage, replicas)

	// in-process
	net        *network.Network
	gwCounters *metrics.Counters

	// wire
	cluster   *node.Cluster
	gateways  []*wire.GatewayClient
	peerConns map[string]*wire.PeerClient
	orderer   *wire.OrdererClient

	closers []func()
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

func netConfig(w *workload, seed int64, dir string) *netconfig.Config {
	cc := netconfig.Chaincode{Name: chaincodeID, Version: "1.0", Contract: "public"}
	if w.pdc {
		cc.Contract = "pdc"
		cc.Collection = collectionID
		cc.Collections = []pvtdata.CollectionConfig{{
			Name:         collectionID,
			MemberPolicy: "OR(org1.member, org2.member)",
			MaxPeerCount: 3,
		}}
	}
	sec := netconfig.Security{StorageBackend: "memory"}
	if w.wire {
		sec = netconfig.Security{StorageBackend: "durable", StorageDir: filepath.Join(dir, "storage")}
	}
	return &netconfig.Config{
		Orgs:               orgs,
		DefaultEndorsement: "MAJORITY Endorsement",
		OrdererCount:       3,
		BatchSize:          batchSize,
		Seed:               seed,
		Security:           sec,
		Chaincodes:         []netconfig.Chaincode{cc},
	}
}

// buildSystem brings up the workload's deployment with G client
// connections. observe adds what the traced pass needs — decorators
// around service.Peer/service.Orderer, the benchmark's own block and
// commit subscriptions — and is off for end-to-end runs.
func buildSystem(w *workload, seed int64, dir string, nclients int, observe bool) (*system, error) {
	s := &system{w: w, dir: dir, cfg: netConfig(w, seed, dir)}
	if observe {
		s.obs = newObserver()
	}
	var err error
	if w.wire {
		err = s.buildWire(nclients)
	} else {
		err = s.buildLocal(nclients)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) buildLocal(nclients int) error {
	net, err := s.cfg.Build()
	if err != nil {
		return err
	}
	s.net = net
	s.closers = append(s.closers, func() { net.Orderer.Stop(); net.Close() })
	s.gwCounters = &metrics.Counters{}

	var ord service.Orderer = net.Orderer
	peers := service.AsPeers(net.Peers())
	if s.obs != nil {
		ord = &tracedOrderer{Orderer: net.Orderer}
		for i, p := range net.Peers() {
			name := p.Name()
			peers[i] = &tracedPeer{Peer: p}
			p.OnCommit(func(_ uint64, txID string, _ ledger.ValidationCode) { s.obs.onCommit(name, txID) })
			net.Gossip.Join(&countingMember{Member: p, pushes: &s.obs.pvtPushes})
		}
		_, sub := net.Orderer.Subscribe(s.obs.onBlock)
		s.closers = append(s.closers, sub.Close)
	}
	byOrg := make(map[string]service.Peer, len(peers))
	for _, p := range peers {
		byOrg[p.Org()] = p
	}
	var members []service.Peer
	for _, org := range memberOrgs {
		members = append(members, byOrg[org])
	}
	for i := 0; i < nclients; i++ {
		// Connections go round-robin over the orgs from org1, whatever the
		// seed: which peers are watched for commits shifts idle latency by
		// a fifth, so it is part of the workload,
		// not of the noise a seed may vary.
		org := orgs[i%len(orgs)]
		id, err := net.CA(org).Issue(fmt.Sprintf("bench%d.%s", i, org), identity.RoleClient)
		if err != nil {
			return err
		}
		commitPeer := byOrg[org]
		gw := gateway.Connect(id, gateway.Options{
			Verifier:   net.Channel.Verifier(),
			Orderer:    ord,
			Security:   s.cfg.SecurityConfig(),
			CommitPeer: commitPeer,
			Metrics:    s.gwCounters,
		}, peers...)
		s.closers = append(s.closers, gw.Close)
		c := &localClient{gw: gw, obs: s.obs, commitPeer: commitPeer.Name(), queryPeer: commitPeer.Name(), endorsers: service.AsEndorsers(peers)}
		if s.w.pdc {
			// Private reads need a member's store, so members endorse; a
			// non-member org's client also queries a member.
			c.endorsers = service.AsEndorsers(members)
			c.endorserNames = service.Names(members)
			if org != memberOrgs[0] && org != memberOrgs[1] {
				c.queryPeer = members[i%len(members)].Name()
			}
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

func (s *system) buildWire(nclients int) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	cl, err := node.LaunchCluster(s.cfg, node.LaunchOptions{Dir: s.dir, Codec: wire.CodecBinary})
	if err != nil {
		return err
	}
	s.cluster = cl
	// A role process does not exit when its stdin closes and Stop kills it
	// only after a 3 s grace, per process; nothing of value is left in the
	// roles once the gate has run, so they are killed first and Stop just
	// reaps them.
	s.closers = append(s.closers, func() { killChildren(); cl.Stop() })
	s.peerConns = make(map[string]*wire.PeerClient)
	for _, name := range cl.PeerNames() {
		pc, err := cl.DialPeer(name)
		if err != nil {
			return err
		}
		s.peerConns[name] = pc
		s.closers = append(s.closers, pc.Close)
	}
	if s.orderer, err = cl.DialOrderer(); err != nil {
		return err
	}
	s.closers = append(s.closers, s.orderer.Close)
	// The cluster's one gateway process watches its own org's peer.
	commitPeer := "peer0." + s.cfg.Orgs[0]
	if s.obs != nil {
		blocks, err := s.orderer.Blocks(context.Background(), 0)
		if err != nil {
			return err
		}
		status := s.peerConns[commitPeer].SubscribeLive()
		if err := status.Err(); err != nil {
			return err
		}
		s.closers = append(s.closers, blocks.Close, status.Close)
		go func() {
			for ev := range blocks.Events() {
				if be, ok := ev.(*deliver.BlockEvent); ok {
					s.obs.onBlock(be.Block)
				}
			}
		}()
		go func() {
			for ev := range status.Events() {
				if st, ok := ev.(*deliver.TxStatusEvent); ok {
					s.obs.onCommit(commitPeer, st.TxID)
				}
			}
		}()
	}
	for i := 0; i < nclients; i++ {
		gc, err := cl.DialGateway()
		if err != nil {
			return err
		}
		s.gateways = append(s.gateways, gc)
		s.closers = append(s.closers, gc.Close)
		s.clients = append(s.clients, &wireClient{gc: gc, obs: s.obs, commitPeer: commitPeer})
	}
	return nil
}

// localClient drives an in-process gateway.Connect connection.
type localClient struct {
	gw            *gateway.Gateway
	obs           *observer
	commitPeer    string
	queryPeer     string
	endorsers     []service.Endorser
	endorserNames []string // nil = the gateway's default set (every peer)
}

func (c *localClient) request(o *op) *service.InvokeRequest {
	return &service.InvokeRequest{Chaincode: chaincodeID, Function: o.fn, Args: o.args}
}

func (c *localClient) submit(ctx context.Context, o *op, tr *opTrace) (txOutcome, error) {
	if tr == nil {
		req := c.request(o)
		if c.endorserNames != nil {
			req.WithEndorsers(c.endorserNames...)
		}
		return submitAndWait(ctx, c.gw, req, nil)
	}
	ctx = withTrace(ctx, tr)
	prop, err := c.gw.NewProposal(chaincodeID, o.fn, o.args, nil)
	if err != nil {
		return txOutcome{}, err
	}
	tr.txID = prop.TxID
	tr.stamps[stProposed] = time.Now()
	tx, payload, err := c.gw.EndorseProposal(ctx, prop, c.endorsers)
	if err != nil {
		return txOutcome{}, err
	}
	tr.stamps[stEndorsed] = time.Now()
	commit, err := c.gw.SubmitAssembledAsync(ctx, tx, payload)
	if err != nil {
		return txOutcome{}, err
	}
	defer commit.Close()
	tr.stamps[stOrdered] = time.Now()
	res, err := commit.Status(ctx)
	if err != nil {
		return txOutcome{}, err
	}
	tr.stamps[stNotified] = time.Now()
	c.obs.fill(tr, c.commitPeer)
	return outcome(res), nil
}

func (c *localClient) evaluate(ctx context.Context, o *op, tr *opTrace) ([]byte, error) {
	return c.gw.Evaluate(withTrace(ctx, tr), c.request(o).WithEndorsers(c.queryPeer))
}

// submitAndWait is what an SDK caller does: SubmitAsync, then Status.
// Over the wire the gateway's submit RPC is all the client can stamp.
func submitAndWait(ctx context.Context, gw service.Gateway, req *service.InvokeRequest, tr *opTrace) (txOutcome, error) {
	commit, err := gw.SubmitAsync(ctx, req)
	if err != nil {
		return txOutcome{}, err
	}
	defer commit.Close()
	if tr != nil {
		tr.txID = commit.TxID()
		tr.stamps[stOrdered] = time.Now()
	}
	res, err := commit.Status(ctx)
	if err != nil {
		return txOutcome{}, err
	}
	if tr != nil {
		tr.stamps[stNotified] = time.Now()
	}
	return outcome(res), nil
}

// wireClient drives the cluster's gateway process over TCP.
type wireClient struct {
	gc         *wire.GatewayClient
	obs        *observer
	commitPeer string
}

func (c *wireClient) submit(ctx context.Context, o *op, tr *opTrace) (txOutcome, error) {
	out, err := submitAndWait(ctx, c.gc, service.NewInvoke(chaincodeID, o.fn, o.args...), tr)
	if err == nil && tr != nil {
		c.obs.fill(tr, c.commitPeer)
	}
	return out, err
}

func (c *wireClient) evaluate(ctx context.Context, o *op, tr *opTrace) ([]byte, error) {
	start := time.Now()
	out, err := c.gc.Evaluate(ctx, service.NewInvoke(chaincodeID, o.fn, o.args...))
	if tr != nil {
		tr.add("gateway.evaluate_rpc", "", start, time.Now())
	}
	return out, err
}

// tracedPeer times each Endorse at the service.Peer boundary; the span
// lands on the operation whose trace rides the context.
type tracedPeer struct{ service.Peer }

func (p *tracedPeer) Endorse(ctx context.Context, prop *ledger.Proposal) (*ledger.ProposalResponse, error) {
	tr := traceFrom(ctx)
	if tr == nil {
		return p.Peer.Endorse(ctx, prop)
	}
	start := time.Now()
	resp, err := p.Peer.Endorse(ctx, prop)
	name := "endorser.endorse"
	if tr.query {
		name = "endorser.evaluate"
	}
	tr.add(name, p.Name(), start, time.Now())
	return resp, err
}

// tracedOrderer times Order at the service.Orderer boundary.
type tracedOrderer struct{ service.Orderer }

func (o *tracedOrderer) Order(ctx context.Context, tx *ledger.Transaction) error {
	tr := traceFrom(ctx)
	if tr == nil {
		return o.Orderer.Order(ctx, tx)
	}
	start := time.Now()
	err := o.Orderer.Order(ctx, tx)
	tr.add("orderer.order.call", "", start, time.Now())
	return err
}

// countingMember counts private-data pushes received over gossip.
type countingMember struct {
	gossip.Member
	pushes *atomic.Int64
}

func (m *countingMember) ReceivePrivateData(set *rwset.TxPvtRWSet) {
	m.pushes.Add(1)
	m.Member.ReceivePrivateData(set)
}

// observer is the benchmark's own view of the block and commit streams.
type observer struct {
	tracing   atomic.Bool
	pvtPushes atomic.Int64

	mu        sync.Mutex
	cut       map[string]time.Time
	committed map[string]time.Time // commit peer + "/" + txID
	blocks    []*ledger.Block      // every block since genesis, for the replay
	txs       int
}

func newObserver() *observer {
	return &observer{cut: make(map[string]time.Time), committed: make(map[string]time.Time)}
}

// onBlock must stay cheap: in-process the orderer's Order waits for every
// subscriber's handler.
func (o *observer) onBlock(b *ledger.Block) {
	now := time.Now()
	o.mu.Lock()
	o.blocks = append(o.blocks, b)
	o.txs += len(b.Transactions)
	if o.tracing.Load() {
		for _, tx := range b.Transactions {
			o.cut[tx.TxID] = now
		}
	}
	o.mu.Unlock()
}

func (o *observer) onCommit(peerName, txID string) {
	if !o.tracing.Load() {
		return
	}
	now := time.Now()
	o.mu.Lock()
	o.committed[peerName+"/"+txID] = now
	o.mu.Unlock()
}

// fill moves the streams' stamps for one transaction into its trace.
func (o *observer) fill(tr *opTrace, commitPeer string) {
	ck := commitPeer + "/" + tr.txID
	o.mu.Lock()
	tr.stamps[stCut] = o.cut[tr.txID]
	tr.stamps[stCommitted] = o.committed[ck]
	delete(o.cut, tr.txID)
	delete(o.committed, ck)
	o.mu.Unlock()
}

// setTracing switches stamp collection; switching off drops the stamps of
// transactions nobody collected (other peers' commits, untraced phases).
func (o *observer) setTracing(on bool) {
	o.tracing.Store(on)
	if !on {
		o.mu.Lock()
		o.cut = make(map[string]time.Time)
		o.committed = make(map[string]time.Time)
		o.mu.Unlock()
	}
}

// mark returns the number of blocks and transactions seen so far.
func (o *observer) mark() (blocks, txs int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.blocks), o.txs
}

// counters snapshots every public counter the deployment exposes to the
// benchmark's process. Over the wire no RPC exposes the orderer's or the
// peers' counters, so those names are simply missing there.
func (s *system) counters() map[string]float64 {
	out := make(map[string]float64)
	if s.net != nil {
		for k, v := range s.net.Orderer.Metrics() {
			out[k] = float64(v)
		}
		for k, v := range s.gwCounters.Snapshot() {
			out[k] = float64(v)
		}
		peerCounters := s.net.Peer(orgs[0]).Metrics()
		for _, k := range []string{metrics.VerifyCacheHits, metrics.VerifyCacheMisses} {
			out[k] = float64(peerCounters[k])
		}
	}
	for _, gc := range s.gateways {
		for _, st := range gc.RPCStats() {
			out["wire_rpc_calls"] += float64(st.Calls)
			out["wire_rpc_bytes"] += float64(st.BytesIn + st.BytesOut)
		}
	}
	if s.obs != nil {
		out["gossip_pushes"] = float64(s.obs.pvtPushes.Load())
	}
	return out
}

// storageDir is where the peers' durable backends live ("" in-process).
func (s *system) storageDir() string {
	if s.cluster == nil {
		return ""
	}
	return s.cfg.Security.StorageDir
}

// --- correctness gate accessors ---

// peerState is one peer's height and world-state hash.
type peerState struct {
	name, org string
	height    uint64
	stateHash string
}

func (s *system) peerStates(ctx context.Context) ([]peerState, error) {
	var out []peerState
	if s.net != nil {
		for _, p := range s.net.Peers() {
			out = append(out, peerState{p.Name(), p.Org(), p.Ledger().Height(), hex.EncodeToString(p.WorldState().StateHash())})
		}
		return out, nil
	}
	for _, name := range s.cluster.PeerNames() {
		pc := s.peerConns[name]
		info, err := pc.Info(ctx)
		if err != nil {
			return nil, fmt.Errorf("peer %s info: %w", name, err)
		}
		out = append(out, peerState{name, pc.Org(), info.Height, info.StateHash})
	}
	return out, nil
}

// verifyChain checks hash linkage and data hashes of the first height
// blocks and returns how many transactions they hold. In-process every
// peer's own VerifyChain runs; over the wire the chain is read back from
// the orderer and checked here.
func (s *system) verifyChain(ctx context.Context, height uint64) (txs int, err error) {
	if s.net != nil {
		for _, p := range s.net.Peers() {
			if bad := p.Ledger().VerifyChain(); bad != -1 {
				return 0, fmt.Errorf("peer %s: chain broken at block %d", p.Name(), bad)
			}
		}
		led := s.net.Peer(orgs[0]).Ledger()
		for n := uint64(0); n < height; n++ {
			b, err := led.Block(n)
			if err != nil {
				return 0, err
			}
			txs += len(b.Transactions)
		}
		return txs, nil
	}
	stream, err := s.orderer.Blocks(ctx, 0)
	if err != nil {
		return 0, err
	}
	defer stream.Close()
	var prev []byte
	for n := uint64(0); n < height; {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				return 0, fmt.Errorf("orderer block stream ended at %d of %d: %v", n, height, stream.Err())
			}
			be, isBlock := ev.(*deliver.BlockEvent)
			if !isBlock {
				continue
			}
			b := be.Block
			if b.Header.Number != n || (prev != nil && string(b.Header.PrevHash) != string(prev)) || !b.VerifyDataHash() {
				return 0, fmt.Errorf("chain broken at block %d", n)
			}
			prev = b.Hash()
			txs += len(b.Transactions)
			n++
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return txs, nil
}

// nonMemberView reports what org3's peer holds for a private key: the
// hashed entry it must have and the private value it must not.
func (s *system) nonMemberView(key string) (hasHash, hasValue bool) {
	store := s.net.Peer(orgs[2]).PvtStore()
	_, _, hasHash = store.GetPrivateHash(chaincodeID, collectionID, key)
	_, _, hasValue = store.GetPrivate(chaincodeID, collectionID, key)
	return hasHash, hasValue
}

// --- layer replay ---

// replica builds a benchmark-owned peer that no orderer delivers to: it
// stands wherever the replay has fed it, so single layers can be timed at
// a block's pre-state.
func (s *system) replica(name string) (*peer.Peer, error) {
	sec := s.cfg.SecurityConfig()
	sec.StorageDir = filepath.Join(s.dir, name)
	cfg := peer.Config{Gossip: gossip.NewNetwork(), Security: sec}
	var err error
	if s.net != nil {
		cfg.Channel = s.net.Channel
		cfg.Identity, err = s.net.CA(orgs[2]).Issue(name+"."+orgs[2], identity.RolePeer)
	} else {
		cfg.Channel = s.cluster.Material.ChannelConfig()
		cfg.Identity, err = s.cluster.Material.Identity("peer0." + orgs[2])
	}
	if err != nil {
		return nil, err
	}
	p, err := peer.New(cfg)
	if err != nil {
		return nil, err
	}
	for i := range s.cfg.Chaincodes {
		cc := &s.cfg.Chaincodes[i]
		impl, err := cc.Implementation()
		if err != nil {
			return nil, err
		}
		if err := p.ApproveDefinition(cc.Definition()); err != nil {
			return nil, err
		}
		p.InstallChaincode(cc.Name, impl)
	}
	return p, nil
}

// replay feeds the captured blocks to single layers on one goroutine.
// Blocks before satFrom only bring the replicas to the pre-state; blocks
// in [satFrom, satTo) are timed, up to maxTxs transactions. The returned
// values are per-layer metrics by name.
func (s *system) replay(satFrom, satTo, maxTxs int) (map[string]float64, error) {
	s.obs.mu.Lock()
	blocks := s.obs.blocks[:satTo]
	s.obs.mu.Unlock()

	// Two replicas, so both numbers meet the verify cache as a live peer
	// does: one only validates (then commits, untimed, to move on), the
	// other only commits.
	validating, err := s.replica("replica-v")
	if err != nil {
		return nil, err
	}
	defer validating.Close()
	committing, err := s.replica("replica-c")
	if err != nil {
		return nil, err
	}
	defer committing.Close()

	var store storage.Backend
	if s.w.wire {
		store, err = storage.Open("durable", storage.Options{Dir: filepath.Join(s.dir, "replay-store")})
		if err != nil {
			return nil, err
		}
		defer store.Close()
	}
	scratch := statedb.New()

	var (
		txs, writes, keys, timedBlocks               int
		validate, commit, apply, getVersions         time.Duration
		encode, decode, blockHash, appendT, stateApp time.Duration
		txBytes, ledgerTxs                           int
	)
	for i, b := range blocks {
		timed := i >= satFrom && txs < maxTxs
		if !timed {
			if err := validating.CommitBlock(b); err != nil {
				return nil, err
			}
			if err := committing.CommitBlock(b.Clone()); err != nil {
				return nil, err
			}
			if store != nil {
				if err := store.Blocks().Append(b); err != nil {
					return nil, err
				}
			}
			continue
		}
		timedBlocks++
		txs += len(b.Transactions)

		// ledger: cold encode, decode and header hash.
		if ledgerTxs < 512 {
			for _, tx := range b.Transactions {
				cold := &ledger.Transaction{
					TxID: tx.TxID, ChannelID: tx.ChannelID, Creator: tx.Creator,
					Proposal: tx.Proposal, ResponsePayload: tx.ResponsePayload, Endorsements: tx.Endorsements,
				}
				t0 := time.Now()
				raw := cold.Bytes()
				encode += time.Since(t0)
				t0 = time.Now()
				if _, err := ledger.ParseTransaction(raw); err != nil {
					return nil, err
				}
				decode += time.Since(t0)
				txBytes += len(raw)
				ledgerTxs++
			}
		}
		t0 := time.Now()
		b.Hash()
		blockHash += time.Since(t0)

		// validator, then the whole commit on the other replica.
		t0 = time.Now()
		validating.Validator().ValidateBlock(b)
		validate += time.Since(t0)
		if err := validating.CommitBlock(b); err != nil {
			return nil, err
		}
		forCommit := b.Clone()
		t0 = time.Now()
		if err := committing.CommitBlock(forCommit); err != nil {
			return nil, err
		}
		commit += time.Since(t0)

		// statedb: the block's writes as one batch, its keys' versions.
		batch, byNS := blockWrites(b)
		t0 = time.Now()
		scratch.ApplyBatch(batch)
		apply += time.Since(t0)
		writes += len(batch)
		t0 = time.Now()
		for ns, ks := range byNS {
			scratch.GetVersions(ns, ks)
			keys += len(ks)
		}
		getVersions += time.Since(t0)

		// storage: block append and one state batch, fsync on.
		if store != nil {
			t0 = time.Now()
			if err := store.Blocks().Append(forCommit); err != nil {
				return nil, err
			}
			appendT += time.Since(t0)
			recs := make([]storage.StateRecord, len(batch))
			for j, w := range batch {
				recs[j] = storage.StateRecord{Namespace: w.Namespace, Key: w.Key, Value: w.Value, Version: b.Header.Number + 1}
			}
			t0 = time.Now()
			if err := store.State().Apply(storage.StateBatch{Height: b.Header.Number + 1, Records: recs}); err != nil {
				return nil, err
			}
			stateApp += time.Since(t0)
		}
	}
	out := make(map[string]float64)
	per := func(name string, d time.Duration, n int) {
		if n > 0 {
			out[name] = float64(d.Nanoseconds()) / 1e3 / float64(n)
		}
	}
	per("validator.validate_us_per_tx", validate, txs)
	per("peer.commit_us_per_tx", commit, txs)
	per("peer.apply_us_per_tx", commit-validate, txs)
	per("statedb.apply_us_per_write", apply, writes)
	per("statedb.get_versions_us_per_key", getVersions, keys)
	per("ledger.tx_encode_us", encode, ledgerTxs)
	per("ledger.tx_decode_us", decode, ledgerTxs)
	per("ledger.block_hash_us", blockHash, timedBlocks)
	if ledgerTxs > 0 {
		out["ledger.tx_bytes"] = float64(txBytes) / float64(ledgerTxs)
	}
	if store != nil {
		per("storage.append_us_per_block", appendT, timedBlocks)
		per("storage.state_batch_us_per_block", stateApp, timedBlocks)
	}
	if s.w.pdc {
		out["gossip.disseminate_p50_us"], err = s.replayDisseminate()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// blockWrites flattens a block's public and hashed writes into one
// statedb batch, plus the keys it touches per namespace.
func blockWrites(b *ledger.Block) ([]statedb.Write, map[string][]string) {
	var batch []statedb.Write
	byNS := make(map[string][]string)
	for _, tx := range b.Transactions {
		prp, err := tx.ResponsePayloadParsed()
		if err != nil {
			continue
		}
		set, err := prp.RWSet()
		if err != nil {
			continue
		}
		for _, ns := range set.NsRWSets {
			for _, r := range ns.Reads {
				byNS[ns.Namespace] = append(byNS[ns.Namespace], r.Key)
			}
			for _, w := range ns.Writes {
				batch = append(batch, statedb.Write{Namespace: ns.Namespace, Key: w.Key, Value: w.Value, IsDelete: w.IsDelete})
				byNS[ns.Namespace] = append(byNS[ns.Namespace], w.Key)
			}
		}
		for _, coll := range set.CollSets {
			ns := pvtdata.HashedNamespace(tx.Proposal.Chaincode, coll.Collection)
			for _, r := range coll.HashedReads {
				byNS[ns] = append(byNS[ns], hex.EncodeToString(r.KeyHash))
			}
			for _, w := range coll.HashedWrites {
				key := hex.EncodeToString(w.KeyHash)
				batch = append(batch, statedb.Write{Namespace: ns, Key: key, Value: w.ValueHash, IsDelete: w.IsDelete})
				byNS[ns] = append(byNS[ns], key)
			}
		}
	}
	return batch, byNS
}

// replayDisseminate times gossip.Network.Disseminate of a private set of
// the workload's shape (one key, one integer value) from one member's
// endorser to the other member's transient store.
func (s *system) replayDisseminate() (float64, error) {
	gnet := gossip.NewNetwork()
	def := s.cfg.Chaincodes[0].Definition()
	coll := def.Collection(collectionID)
	for _, org := range memberOrgs {
		id, err := s.net.CA(org).Issue("gossip-replay."+org, identity.RolePeer)
		if err != nil {
			return 0, err
		}
		p, err := peer.New(peer.Config{Identity: id, Channel: s.net.Channel, Gossip: gnet, Security: s.cfg.SecurityConfig()})
		if err != nil {
			return 0, err
		}
		defer p.Close()
	}
	self := "gossip-replay." + memberOrgs[0]
	const n = 2000
	samples := make([]float64, n)
	for i := range samples {
		b := rwset.NewBuilder()
		key := fmt.Sprintf("k%04d", i)
		b.AddPvtWrite(collectionID, key, rwset.KVWrite{Key: key, Value: []byte("123456")})
		txID := fmt.Sprintf("replay-%d", i)
		_, pvt := b.Build(txID)
		t0 := time.Now()
		if err := gnet.Disseminate(self, coll, txID, &pvt.CollSets[0]); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	sort.Float64s(samples)
	return samples[n/2], nil
}
