// Package gateway implements the Fabric Gateway-style client API: a
// client connects once (Connect), navigates to a channel and contract
// (Gateway.Network, Network.Contract), and drives transactions through
// context-first calls — Contract.Evaluate for queries, Contract.Submit
// for the full endorse → order → commit-wait flow, Contract.SubmitAsync
// when the caller wants to overlap work with the commit wait.
//
// The gateway is written against the transport-agnostic interfaces of
// internal/service: its peers are service.Peer and its orderer a
// service.Orderer, so the same Gateway endorses through in-process
// peers (*peer.Peer) or through wire clients talking to peers in other
// OS processes — and the Gateway itself satisfies service.Gateway, so
// it can in turn be served over the wire (wire.RegisterGateway).
//
// Submit does not return at ordering time: it blocks (honoring the
// context's deadline) until the transaction's final validation code
// arrives over the commit peer's delivery stream — the same push-based
// commit notification real Fabric clients rely on. There is no
// peer-state polling anywhere in this path.
package gateway

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/deliver"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/service"
)

// DefaultCommitTimeout bounds the commit wait when the caller's context
// carries no deadline.
const DefaultCommitTimeout = 30 * time.Second

// Result is the final outcome of a submitted transaction. It aliases
// service.SubmitResult — the struct that travels over the wire — so the
// local and remote call surfaces share one result shape.
type Result = service.SubmitResult

// Options wires a Gateway beyond its identity and peers.
type Options struct {
	// Verifier checks endorsement signatures under defense Feature 2.
	Verifier *identity.Verifier
	// Orderer receives assembled transactions (in-process service or
	// wire client).
	Orderer service.Orderer
	// Security selects the active defense features on the client side.
	Security core.SecurityConfig
	// CommitPeer is the peer whose delivery stream reports commit
	// status; defaults to the first connected peer of the identity's own
	// organization, then to the first connected peer.
	CommitPeer service.Peer
	// CommitTimeout bounds Submit's commit wait when the caller's
	// context has no deadline; 0 selects DefaultCommitTimeout.
	CommitTimeout time.Duration
	// Timings, when non-nil, receives the deliver_commit_wait histogram
	// (submit→commit-notified latency per transaction).
	Timings *metrics.Timings
	// Metrics, when non-nil, receives the gateway_admitted/gateway_shed
	// admission counters. Several gateways may share one counter set
	// (e.g. all simulated clients of a load run).
	Metrics *metrics.Counters
}

// Gateway is one client's connection to the network: an identity plus
// the peers it endorses through and the peer it watches for commit
// events. It satisfies service.Gateway.
type Gateway struct {
	id         *identity.Identity
	verifier   *identity.Verifier
	orderer    service.Orderer
	commitPeer service.Peer
	// router multiplexes every pending commit wait onto one shared
	// live deliver subscription to the commit peer.
	router *commitRouter

	// pmu guards the connected peer set, which grows when peers join
	// the channel after the gateway connected (Network.JoinPeer).
	pmu    sync.RWMutex
	peers  []service.Peer
	byName map[string]service.Peer

	commitTimeout time.Duration
	timings       *metrics.Timings
	counters      *metrics.Counters

	mu        sync.RWMutex
	sec       core.SecurityConfig
	admission *tokenBucket // nil = admission control off
}

var _ service.Gateway = (*Gateway)(nil)

// Connect opens a gateway for a client identity over its peers. The
// variadic peers are the default endorsement set of every contract call
// (override per call with WithEndorsers, or by naming endorsers in the
// InvokeRequest).
func Connect(id *identity.Identity, opts Options, peers ...service.Peer) *Gateway {
	g := &Gateway{
		id:            id,
		verifier:      opts.Verifier,
		orderer:       opts.Orderer,
		peers:         append([]service.Peer(nil), peers...),
		byName:        make(map[string]service.Peer, len(peers)),
		commitPeer:    opts.CommitPeer,
		commitTimeout: opts.CommitTimeout,
		timings:       opts.Timings,
		counters:      opts.Metrics,
		sec:           opts.Security,
		admission:     newTokenBucket(opts.Security.GatewayAdmissionRate, opts.Security.GatewayAdmissionBurst),
	}
	for _, p := range g.peers {
		if p != nil {
			g.byName[p.Name()] = p
		}
	}
	if g.commitPeer != nil {
		g.byName[g.commitPeer.Name()] = g.commitPeer
	}
	if g.commitTimeout <= 0 {
		g.commitTimeout = DefaultCommitTimeout
	}
	if g.commitPeer == nil {
		for _, p := range g.peers {
			if p != nil && p.Org() == id.MSPID() {
				g.commitPeer = p
				break
			}
		}
	}
	if g.commitPeer == nil {
		for _, p := range g.peers {
			if p != nil {
				g.commitPeer = p
				break
			}
		}
	}
	// The closure defers the commitPeer dereference to first use:
	// submit paths check for a nil commit peer before registering.
	g.router = newCommitRouter(func() service.Stream { return g.commitPeer.SubscribeLive() })
	return g
}

// Close releases the gateway's shared commit-status subscription.
// Outstanding commit waits fail with ErrCommitStatusUnavailable and
// further submits are refused; peer and orderer connections are owned
// by the caller and left open. Idempotent.
func (g *Gateway) Close() { g.router.close() }

// Identity returns the connected client identity.
func (g *Gateway) Identity() *identity.Identity { return g.id }

// CommitPeer returns the peer whose delivery stream this gateway
// watches for commit status.
func (g *Gateway) CommitPeer() service.Peer { return g.commitPeer }

// AddPeer adds a peer to the gateway's connected set, making it part of
// the default endorsement set and resolvable by name in InvokeRequests.
// Used when a peer joins the channel after the gateway connected.
func (g *Gateway) AddPeer(p service.Peer) {
	if p == nil {
		return
	}
	g.pmu.Lock()
	defer g.pmu.Unlock()
	if _, ok := g.byName[p.Name()]; ok {
		return
	}
	g.peers = append(g.peers, p)
	g.byName[p.Name()] = p
}

// connectedPeers snapshots the connected peer set.
func (g *Gateway) connectedPeers() []service.Peer {
	g.pmu.RLock()
	defer g.pmu.RUnlock()
	return append([]service.Peer(nil), g.peers...)
}

// peerByName resolves a connected peer.
func (g *Gateway) peerByName(name string) (service.Peer, bool) {
	g.pmu.RLock()
	defer g.pmu.RUnlock()
	p, ok := g.byName[name]
	return p, ok
}

// SetSecurity swaps the active security configuration, rebuilding the
// admission token bucket from the new rate/burst knobs.
func (g *Gateway) SetSecurity(sec core.SecurityConfig) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sec = sec
	g.admission = newTokenBucket(sec.GatewayAdmissionRate, sec.GatewayAdmissionBurst)
}

func (g *Gateway) security() core.SecurityConfig {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.sec
}

// Network selects a channel. The channel name is validated lazily: a
// mismatch with the commit peer's channel surfaces on the first contract
// call. An empty name selects the commit peer's channel.
func (g *Gateway) Network(channel string) *Network {
	return &Network{g: g, channel: channel}
}

// Network is a gateway's view of one channel.
type Network struct {
	g       *Gateway
	channel string
}

// Name returns the selected channel name.
func (n *Network) Name() string { return n.channel }

// Contract selects a chaincode on the channel.
func (n *Network) Contract(name string) *Contract {
	return &Contract{g: n.g, channel: n.channel, name: name}
}

// DeliverService exposes the commit peer's delivery service, so channel
// consumers can follow block and commit-status streams directly (with
// checkpointed replay across restarts). Only in-process peers expose
// the concrete service; for remote commit peers use the gateway's
// SubscribeFrom surface on the peer itself.
func (n *Network) DeliverService() (*deliver.Service, error) {
	if n.g.commitPeer == nil {
		return nil, fmt.Errorf("gateway: no commit peer connected")
	}
	dp, ok := n.g.commitPeer.(interface{ Deliver() *deliver.Service })
	if !ok {
		return nil, fmt.Errorf("gateway: commit peer %s is remote; no in-process deliver service", n.g.commitPeer.Name())
	}
	return dp.Deliver(), nil
}

// Contract drives one chaincode.
type Contract struct {
	g       *Gateway
	channel string
	name    string
}

// Name returns the chaincode name.
func (c *Contract) Name() string { return c.name }

// callOptions collects per-call overrides.
type callOptions struct {
	args         []string
	transient    map[string][]byte
	endorsers    []service.Endorser
	endorsersSet bool
}

// CallOption customizes one Evaluate/Submit/SubmitAsync call.
type CallOption func(*callOptions)

// WithArguments sets the chaincode function arguments.
func WithArguments(args ...string) CallOption {
	return func(o *callOptions) { o.args = args }
}

// WithTransient attaches confidential inputs that reach the chaincode
// without entering the transaction (Fabric's transient map).
func WithTransient(transient map[string][]byte) CallOption {
	return func(o *callOptions) { o.transient = transient }
}

// WithEndorsers overrides the gateway's default endorsement set — e.g.
// restricting a private-data write to collection members. Passing none
// explicitly requests zero endorsers and fails with ErrNoEndorsers.
func WithEndorsers(endorsers ...service.Endorser) CallOption {
	return func(o *callOptions) {
		o.endorsers = endorsers
		o.endorsersSet = true
	}
}

func (c *Contract) options(opts []CallOption) *callOptions {
	o := &callOptions{}
	for _, opt := range opts {
		opt(o)
	}
	if !o.endorsersSet {
		o.endorsers = service.AsEndorsers(c.g.connectedPeers())
	}
	return o
}

// checkChannel validates a lazily selected channel name.
func (g *Gateway) checkChannel(channel string) error {
	if channel == "" || g.commitPeer == nil {
		return nil
	}
	if have := g.commitPeer.ChannelName(); channel != have {
		return fmt.Errorf("gateway: unknown channel %q (peers serve %q)", channel, have)
	}
	return nil
}

// resolveEndorsers maps InvokeRequest endorser names onto connected
// peers; nil without an explicit set selects every connected peer.
func (g *Gateway) resolveEndorsers(req *service.InvokeRequest) ([]service.Endorser, error) {
	if !req.EndorsersSet && req.Endorsers == nil {
		return service.AsEndorsers(g.connectedPeers()), nil
	}
	out := make([]service.Endorser, 0, len(req.Endorsers))
	for _, name := range req.Endorsers {
		p, ok := g.peerByName(name)
		if !ok {
			return nil, fmt.Errorf("%w: endorser %q not connected", ErrNoEndorsers, name)
		}
		out = append(out, p)
	}
	return out, nil
}

// Evaluate runs a query against a single endorser without ordering: no
// transaction is created and the ledger is not updated. The first
// endorser of the request (or the gateway's commit peer) serves the
// query.
func (g *Gateway) Evaluate(ctx context.Context, req *service.InvokeRequest) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := g.checkChannel(req.Channel); err != nil {
		return nil, err
	}
	endorsers, err := g.resolveEndorsers(req)
	if err != nil {
		return nil, err
	}
	return g.evaluate(ctx, req.Channel, req.Chaincode, req.Function, req.Args, req.Transient, endorsers)
}

// evaluate is the shared query path behind the struct-based and
// Contract call surfaces: the first endorser (or the commit peer)
// simulates the proposal and its response payload is returned.
func (g *Gateway) evaluate(
	ctx context.Context,
	channel, chaincodeName, function string,
	args []string,
	transient map[string][]byte,
	endorsers []service.Endorser,
) ([]byte, error) {
	var target service.Endorser
	if g.commitPeer != nil {
		target = g.commitPeer
	}
	if len(endorsers) > 0 {
		target = endorsers[0]
	}
	if target == nil {
		return nil, ErrNoEndorsers
	}
	prop, err := g.newProposal(channel, chaincodeName, function, args, transient)
	if err != nil {
		return nil, err
	}
	resp, err := target.Endorse(ctx, prop)
	if err != nil {
		return nil, fmt.Errorf("gateway: evaluate %s.%s: %w", chaincodeName, function, err)
	}
	return resp.Response.Payload, nil
}

// Submit drives the full transaction flow — endorse, order, wait for the
// final commit status over the deliver stream — honoring ctx at every
// stage. The returned Result carries the transaction's final validation
// code as recorded by the commit peer; a non-VALID code is reported in
// the Result, not as an error.
func (g *Gateway) Submit(ctx context.Context, req *service.InvokeRequest) (*Result, error) {
	commit, err := g.SubmitAsync(ctx, req)
	if err != nil {
		return nil, err
	}
	defer commit.Close()
	return commit.Status(ctx)
}

// SubmitAsync endorses and orders the transaction described by the
// request, returning as soon as the orderer accepted it. The caller
// collects the final validation code later through Commit.Status (and
// must Close the Commit when done).
func (g *Gateway) SubmitAsync(ctx context.Context, req *service.InvokeRequest) (service.Commit, error) {
	endorsers, err := g.resolveEndorsers(req)
	if err != nil {
		return nil, err
	}
	commit, err := g.submitAsync(ctx, req.Channel, req.Chaincode, req.Function, req.Args, req.Transient, endorsers)
	if err != nil {
		return nil, err
	}
	return commit, nil
}

// SubmitWithRetry submits a request, re-endorsing and resubmitting when
// the result is an MVCC read conflict — the standard SDK pattern for
// contended keys, since a conflict only means another transaction
// committed between simulation and validation.
func (g *Gateway) SubmitWithRetry(ctx context.Context, req *service.InvokeRequest, maxAttempts int) (*Result, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var last *Result
	for attempt := 0; attempt < maxAttempts; attempt++ {
		res, err := g.Submit(ctx, req)
		if err != nil {
			return nil, err
		}
		if res.Code != ledger.MVCCConflict {
			return res, nil
		}
		last = res
	}
	return last, fmt.Errorf("gateway: tx still conflicting after %d attempts", maxAttempts)
}

// submitAsync is the shared endorse→order path behind the struct-based
// and Contract call surfaces.
//
// Admission control (SecurityConfig.GatewayAdmissionRate) runs first: a
// shed submission returns ErrOverloaded (carrying a retry-after hint)
// before any endorsement work — no proposal is built, no peer is
// contacted — so the client may retry after a backoff at near-zero
// server cost. Callers that assemble transactions themselves and enter
// through SubmitAssembledAsync bypass the check (they are trusted
// harness/adapter paths, not clients).
func (g *Gateway) submitAsync(
	ctx context.Context,
	channel, chaincodeName, function string,
	args []string,
	transient map[string][]byte,
	endorsers []service.Endorser,
) (*Commit, error) {
	if err := g.checkChannel(channel); err != nil {
		return nil, err
	}
	if err := g.admit(); err != nil {
		return nil, err
	}
	prop, err := g.newProposal(channel, chaincodeName, function, args, transient)
	if err != nil {
		return nil, err
	}
	tx, payload, err := g.EndorseProposal(ctx, prop, endorsers)
	if err != nil {
		return nil, err
	}
	return g.SubmitAssembledAsync(ctx, tx, payload)
}

// Evaluate runs a query against a single endorser without ordering. The
// first endorser of the call (or the gateway's commit peer) serves the
// query.
func (c *Contract) Evaluate(ctx context.Context, function string, opts ...CallOption) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.g.checkChannel(c.channel); err != nil {
		return nil, err
	}
	o := c.options(opts)
	return c.g.evaluate(ctx, c.channel, c.name, function, o.args, o.transient, o.endorsers)
}

// Submit drives the full transaction flow through the contract's
// call-option surface; see Gateway.Submit.
func (c *Contract) Submit(ctx context.Context, function string, opts ...CallOption) (*Result, error) {
	commit, err := c.SubmitAsync(ctx, function, opts...)
	if err != nil {
		return nil, err
	}
	defer commit.Close()
	return commit.Status(ctx)
}

// SubmitAsync endorses and orders the transaction, returning as soon as
// the orderer accepted it; see Gateway.SubmitAsync.
func (c *Contract) SubmitAsync(ctx context.Context, function string, opts ...CallOption) (*Commit, error) {
	o := c.options(opts)
	return c.g.submitAsync(ctx, c.channel, c.name, function, o.args, o.transient, o.endorsers)
}

// Commit is a pending commit notification: the handle SubmitAsync
// returns while the transaction is in ordering/validation. It satisfies
// service.Commit.
type Commit struct {
	g       *Gateway
	txID    string
	payload []byte
	// ch yields the transaction's commit-status event, routed off the
	// gateway's shared deliver subscription; it closes without a value
	// when the wait is terminally dead (stream failure or Close).
	ch        <-chan *deliver.TxStatusEvent
	submitted time.Time

	// mu serializes waiters (it is held across the blocking wait, so
	// concurrent Status calls never race on the result channel); done
	// latches a terminal outcome into result/err.
	// A ctx cancellation or deadline is NOT terminal: it is returned to
	// that caller but latches nothing and leaves the subscription open,
	// so a later Status call with a fresh context can still succeed.
	mu     sync.Mutex
	done   bool
	result *Result
	err    error
}

var _ service.Commit = (*Commit)(nil)

// TxID returns the pending transaction's ID.
func (c *Commit) TxID() string { return c.txID }

// Status blocks until the transaction's final commit-status event
// arrives on the deliver stream, honoring ctx; without a ctx deadline
// the gateway's commit timeout applies. A transaction left in a partial
// orderer batch needs no prompt: the orderer cuts it once its queue
// runs dry.
//
// An error derived from the caller's context (cancellation or deadline)
// is transient: Status may be called again and will pick the wait back
// up. Any other outcome — the final commit status, or a failed
// subscription — is latched and returned to every subsequent call.
func (c *Commit) Status(ctx context.Context) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return c.result, c.err
	}
	res, err, terminal := c.wait(ctx)
	if terminal {
		c.done = true
		c.result, c.err = res, err
		c.g.router.unregister(c.txID)
	}
	return res, err
}

// wait performs one blocking attempt to obtain the commit status. The
// third return reports whether the outcome is terminal (latch + close
// the subscription) or ctx-derived (leave everything open for a retry).
func (c *Commit) wait(ctx context.Context) (*Result, error, bool) {
	var st *deliver.TxStatusEvent
	select {
	case s, ok := <-c.ch:
		if !ok {
			// A closed channel — router stream failure, or Close — is
			// terminal; cancellation and deadline expiry are retryable.
			return nil, fmt.Errorf("%w: tx %s: %v", ErrCommitStatusUnavailable, c.txID, deliver.ErrClosed), true
		}
		st = s
	default:
	}
	if st == nil {
		wctx := ctx
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			wctx, cancel = context.WithTimeout(ctx, c.g.commitTimeout)
			defer cancel()
		}
		select {
		case s, ok := <-c.ch:
			if !ok {
				return nil, fmt.Errorf("%w: tx %s: %v", ErrCommitStatusUnavailable, c.txID, deliver.ErrClosed), true
			}
			st = s
		case <-wctx.Done():
			// The caller's own cancellation, or the gateway commit
			// timeout derived above: retryable either way.
			return nil, fmt.Errorf("%w: tx %s: %v", ErrCommitStatusUnavailable, c.txID, wctx.Err()), false
		}
	}
	wait := time.Since(c.submitted)
	if c.g.timings != nil {
		c.g.timings.Observe(metrics.DeliverCommitWait, wait)
	}
	return &Result{
		TxID:               c.txID,
		Payload:            c.payload,
		Code:               st.Code,
		Detail:             st.Detail,
		BlockNum:           st.BlockNum,
		Event:              st.ChaincodeEvent,
		MissingCollections: st.MissingCollections,
		CommitWait:         wait,
	}, nil, true
}

// Close releases the commit's wait registration on the gateway's
// shared deliver subscription. Close is idempotent with the release
// Status performs on a terminal outcome, and safe concurrently with a
// blocked Status — which then returns ErrCommitStatusUnavailable.
func (c *Commit) Close() { c.g.router.unregister(c.txID) }

// SubmitAssembledAsync orders a pre-assembled transaction and returns a
// pending Commit. The commit wait is registered on the gateway's shared
// deliver subscription — opened (and, for remote commit peers,
// acknowledged by the serving process) before the transaction reaches
// the orderer, so the commit-status event cannot be missed. Exposed for
// harnesses that interpose between endorsement and ordering.
func (g *Gateway) SubmitAssembledAsync(ctx context.Context, tx *ledger.Transaction, payload []byte) (*Commit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g.orderer == nil {
		return nil, fmt.Errorf("gateway: no orderer connected")
	}
	if g.commitPeer == nil {
		return nil, fmt.Errorf("gateway: no commit peer connected")
	}
	ch, err := g.router.register(tx.TxID)
	if err != nil {
		return nil, fmt.Errorf("gateway: commit stream: %w", err)
	}
	start := time.Now()
	if err := g.orderer.Order(ctx, tx); err != nil {
		g.router.unregister(tx.TxID)
		return nil, fmt.Errorf("gateway: order tx %s: %w", tx.TxID, err)
	}
	return &Commit{g: g, txID: tx.TxID, payload: payload, ch: ch, submitted: start}, nil
}

// SubmitAssembled orders a pre-assembled transaction and waits for its
// final commit status.
func (g *Gateway) SubmitAssembled(ctx context.Context, tx *ledger.Transaction, payload []byte) (*Result, error) {
	commit, err := g.SubmitAssembledAsync(ctx, tx, payload)
	if err != nil {
		return nil, err
	}
	defer commit.Close()
	return commit.Status(ctx)
}
