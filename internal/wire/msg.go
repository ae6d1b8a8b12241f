package wire

import (
	"repro/internal/deliver"
	"repro/internal/ledger"
)

// request is the payload of an ftRequest frame.
type request struct {
	// Method names the RPC, e.g. "peer.endorse".
	Method string
	// Deadline is the caller's context deadline in Unix nanoseconds;
	// zero means none. The server re-derives a context from it, so
	// deadlines propagate across the process boundary.
	Deadline int64
	// Body is the encoded method-specific request struct.
	Body []byte
}

// response is the payload of an ftResponse frame. For unary calls it is
// terminal. For streams, the first response with More set acknowledges
// that the server registered the subscription (events may follow), and
// a later response without More ends the stream, carrying the reason in
// Err.
type response struct {
	Err  *WireError
	Body []byte
	More bool
}

// WireError is the serialized form of a call error. Code maps back to
// the originating package's sentinel on the client so errors.Is works
// across the process boundary; RetryAfterMs carries the admission
// controller's backpressure hint through gateway overload errors.
type WireError struct {
	Code         string
	Message      string
	RetryAfterMs int64
}

// event is the payload of an ftEvent frame: exactly one of the fields
// is set — the two deliver event kinds, or a snapshot chunk on a
// peer.snapshot.chunks stream.
type event struct {
	Block  *deliver.BlockEvent
	Status *deliver.TxStatusEvent
	Chunk  *SnapshotChunkEvent
}

// decode returns the deliver.Event the frame carries.
func (e *event) decode() deliver.Event {
	if e.Block != nil {
		return e.Block
	}
	if e.Status != nil {
		return e.Status
	}
	if e.Chunk != nil {
		return e.Chunk
	}
	return nil
}

// RPC request/response bodies. Kept together so docs/WIRE.md's RPC
// catalogue has a single source of truth.

// endorseRequest carries a proposal for peer.endorse. The transient map
// travels beside the proposal because Proposal.Transient is explicitly
// excluded from serialization (it must never enter a transaction); the
// endorsing peer reattaches it before simulation.
type endorseRequest struct {
	Proposal  *ledger.Proposal
	Transient map[string][]byte
}

// subscribeRequest opens a peer.subscribe deliver stream.
type subscribeRequest struct {
	From uint64
	// Live selects SubscribeLive (From ignored) over SubscribeFrom.
	Live bool
}

// pvtRequest asks a peer for one transaction's private rwset of a
// collection (the reconciler's pull).
type pvtRequest struct {
	TxID       string
	Collection string
}

// infoResponse describes a serving peer; the wire client caches it at
// connect time to answer Name/Org/ChannelName locally, and cluster
// tests use Height/StateHash for convergence checks.
type infoResponse struct {
	Name      string
	Org       string
	Channel   string
	Height    uint64
	StateHash string
	// Base is the peer's chain base: 0 for a genesis-replay peer, the
	// snapshot height for a peer bootstrapped via InstallSnapshot.
	Base uint64
}

// orderRequest submits a serialized transaction (ledger.Transaction
// canonical bytes) for ordering.
type orderRequest struct {
	Tx []byte
}

// txIDRequest names a transaction for order.inpending / order.flushtx.
type txIDRequest struct {
	TxID string
}

// inPendingResponse reports order.inpending's verdict.
type inPendingResponse struct {
	Pending bool
}

// blocksRequest opens an order.blocks stream from block number From.
type blocksRequest struct {
	From uint64
}

// snapshotMetaResponse answers peer.snapshot.meta: the manifest of a
// freshly exported snapshot — the raw MANIFEST.json bytes, shipped
// verbatim so the artifact's self-hash verifies end to end — plus the
// export handle a peer.snapshot.chunks stream is keyed by.
type snapshotMetaResponse struct {
	Export   uint64
	Manifest []byte
}

// snapshotChunksRequest opens a peer.snapshot.chunks stream replaying
// one export's chunk files in manifest order.
type snapshotChunksRequest struct {
	Export uint64
}

// SnapshotChunkEvent carries one snapshot chunk file, byte for byte as
// written by the exporter, so the manifest's chunk hashes hold at the
// receiver. It rides the event union of a peer.snapshot.chunks stream.
type SnapshotChunkEvent struct {
	// Index is the chunk's position in the manifest's chunk list.
	Index uint64
	// Name is the chunk's file name inside the artifact directory.
	Name string
	// Data is the verbatim chunk file content.
	Data []byte
}

// BlockNumber implements deliver.Event; for a chunk it is the artifact
// position, letting chunk streams reuse the event plumbing.
func (e *SnapshotChunkEvent) BlockNumber() uint64 { return e.Index }

// evaluateResponse carries gw.evaluate's query payload.
type evaluateResponse struct {
	Payload []byte
}

// submitAsyncResponse hands back a server-side commit handle.
type submitAsyncResponse struct {
	Handle uint64
	TxID   string
}

// handleRequest names a commit handle for gw.status / gw.close.
type handleRequest struct {
	Handle uint64
}
