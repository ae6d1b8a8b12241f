// Package service defines the transport-agnostic component APIs of the
// reproduction: the endorse, order, deliver and gateway surfaces every
// node exposes. Each interface has (at least) two implementations — the
// in-process one (*peer.Peer, *orderer.Service, *gateway.Gateway) used
// by tests and single-process deployments, and a wire client
// (internal/wire) speaking the framed TCP protocol to a served form of
// the same component in another process. Callers written against these
// interfaces run unchanged in either deployment; this is the
// local-vs-remote split of teranode's validator (SNIPPETS.md §1).
//
// The request/response structs (InvokeRequest, SubmitResult) are the
// single client-facing call surface: the same structs are passed to a
// local gateway and marshaled onto the wire, so there is no separate
// "remote" API to drift out of sync.
package service

import (
	"context"

	"repro/internal/deliver"
	"repro/internal/ledger"
)

// Endorser simulates proposals and returns signed proposal responses —
// the peer's endorsement surface (paper Fig. 4 steps 2–5).
type Endorser interface {
	// Name returns the node name, e.g. "peer0.org1".
	Name() string
	// Org returns the endorser's organization (MSP ID).
	Org() string
	// Endorse simulates the proposal against current state and returns
	// the signed response. The context bounds the call; a remote
	// implementation propagates its deadline to the serving peer.
	Endorse(ctx context.Context, prop *ledger.Proposal) (*ledger.ProposalResponse, error)
}

// Stream is one consumer's ordered event stream from a deliver service:
// block events and per-transaction commit-status events. The channel
// closes when the stream ends; Err reports why. *deliver.Subscription
// satisfies Stream directly; the wire client reconstructs the same
// shape from event frames.
type Stream interface {
	Events() <-chan deliver.Event
	Err() error
	Close()
}

// Deliverer is the peer's block/commit-status delivery surface.
type Deliverer interface {
	// SubscribeLive streams events for blocks committed after the call.
	SubscribeLive() Stream
	// SubscribeFrom replays events from block number `from` and then
	// follows live commits (checkpointed replay).
	SubscribeFrom(from uint64) (Stream, error)
}

// Peer is the full client-facing surface of one peer: endorsement plus
// delivery plus channel identification.
type Peer interface {
	Endorser
	Deliverer
	// ChannelName returns the channel the peer serves.
	ChannelName() string
}

// Orderer is the ordering service surface a gateway depends on.
type Orderer interface {
	// Order submits an assembled transaction and returns once its raft
	// round finished (or the context expires): the transaction is then
	// in a cut block or pending behind more queued work, which the
	// orderer cuts without being asked. When the transaction filled a
	// BatchSize block, Order also waits until every peer registered with
	// the orderer processed that block; a block cut because the queue
	// ran dry is not waited for. Acceptance does not imply validity —
	// the commit status arrives through the deliver stream.
	Order(ctx context.Context, tx *ledger.Transaction) error
}

// Commit is a pending commit-status handle returned by SubmitAsync.
// Every handle must be driven to a terminal Status or Closed.
type Commit interface {
	// TxID returns the pending transaction's ID.
	TxID() string
	// Status blocks until the transaction's final commit status is
	// known, honoring ctx. Context-derived errors are non-sticky: a
	// later call with a fresh context picks the wait back up.
	Status(ctx context.Context) (*SubmitResult, error)
	// Close releases the handle's resources. Idempotent.
	Close()
}

// Gateway is the client-facing transaction API: the same three calls,
// taking the same request structs, whether the gateway runs in-process
// or behind the wire protocol.
type Gateway interface {
	// Evaluate runs a query against a single endorser without ordering.
	Evaluate(ctx context.Context, req *InvokeRequest) ([]byte, error)
	// Submit drives endorse → order → commit-wait and returns the final
	// validation outcome.
	Submit(ctx context.Context, req *InvokeRequest) (*SubmitResult, error)
	// SubmitAsync endorses and orders, returning as soon as the orderer
	// accepted the transaction; the final status is collected through
	// the returned Commit.
	SubmitAsync(ctx context.Context, req *InvokeRequest) (Commit, error)
}
