package wire

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/deliver"
	"repro/internal/ledger"
	"repro/internal/rwset"
	"repro/internal/service"
)

// This file is the binary codec's type catalogue: the frame envelopes
// and every RPC body, each a presence marker followed by its fields in
// the positional field codec (internal/codec). Field order is the format
// — docs/WIRE.md documents each layout. Ledger and rwset objects are
// encoded by the packages that own them, in the one encoding they are
// signed, hashed and stored in. A type absent from binMarshal's switch
// cannot cross the wire: marshalBody fails it with ErrNoEncoding.

// binMarshal encodes v into a pooled buffer. ok reports whether the
// binary codec knows v's type.
func binMarshal(v any) (data []byte, ok bool) {
	b := getBuf(256)
	switch t := v.(type) {
	case *request:
		b = codec.AppendOpt(b, t, appRequest)
	case *response:
		b = codec.AppendOpt(b, t, appResponse)
	case *streamAck:
		b = codec.AppendOpt(b, t, func(b []byte, v *streamAck) []byte { return codec.AppendUvarint(b, v.Backlog) })
	case *event:
		b = codec.AppendOpt(b, t, appEvent)
	case *endorseRequest:
		b = codec.AppendOpt(b, t, appEndorseRequest)
	case *subscribeRequest:
		b = codec.AppendOpt(b, t, appSubscribeRequest)
	case *pvtRequest:
		b = codec.AppendOpt(b, t, appPvtRequest)
	case *infoResponse:
		b = codec.AppendOpt(b, t, appInfoResponse)
	case *orderRequest:
		b = codec.AppendOpt(b, t, appOrderRequest)
	case *blocksRequest:
		b = codec.AppendOpt(b, t, appBlocksRequest)
	case *evaluateResponse:
		b = codec.AppendOpt(b, t, appEvaluateResponse)
	case *submitAsyncResponse:
		b = codec.AppendOpt(b, t, appSubmitAsyncResponse)
	case *handleRequest:
		b = codec.AppendOpt(b, t, appHandleRequest)
	case *snapshotMetaResponse:
		b = codec.AppendOpt(b, t, appSnapshotMetaResponse)
	case *snapshotChunksRequest:
		b = codec.AppendOpt(b, t, appSnapshotChunksRequest)
	case *rwset.TxPvtRWSet:
		b = codec.AppendOpt(b, t, rwset.AppendTxPvtRWSet)
	case *rwset.CollPvtRWSet:
		// A typed nil travels as nil: peer.pvt's "no such private data".
		b = codec.AppendOpt(b, t, rwset.AppendCollPvtRWSet)
	case *service.InvokeRequest:
		b = codec.AppendOpt(b, t, appInvokeRequest)
	case *service.SubmitResult:
		b = codec.AppendOpt(b, t, appSubmitResult)
	case *ledger.ProposalResponse:
		b = codec.AppendOpt(b, t, ledger.AppendProposalResponse)
	default:
		putBuf(b)
		return nil, false
	}
	return b, true
}

// binUnmarshal decodes data into v. ok reports whether the binary codec
// knows v's type; when ok, err is the decode outcome. Decoding into a
// value target from a nil (presence-0) encoding leaves the target's
// zero value.
func binUnmarshal(data []byte, v any) (ok bool, err error) {
	r := codec.NewReader(data)
	switch t := v.(type) {
	case *request:
		decodeInto(&r, t, readRequest)
	case *response:
		decodeInto(&r, t, readResponse)
	case *streamAck:
		decodeInto(&r, t, func(r *codec.Reader) *streamAck { return &streamAck{Backlog: r.Uvarint()} })
	case *event:
		decodeInto(&r, t, readEvent)
	case *endorseRequest:
		decodeInto(&r, t, func(r *codec.Reader) *endorseRequest {
			return &endorseRequest{Proposal: codec.ReadOpt(r, ledger.ReadProposal), Transient: r.ByteMap()}
		})
	case *subscribeRequest:
		decodeInto(&r, t, func(r *codec.Reader) *subscribeRequest {
			return &subscribeRequest{From: r.Uvarint(), Live: r.Bool()}
		})
	case *pvtRequest:
		decodeInto(&r, t, func(r *codec.Reader) *pvtRequest {
			return &pvtRequest{TxID: r.String(), Collection: r.String()}
		})
	case *infoResponse:
		decodeInto(&r, t, func(r *codec.Reader) *infoResponse {
			return &infoResponse{
				Name: r.String(), Org: r.String(), Channel: r.String(),
				Height: r.Uvarint(), StateHash: r.String(), Base: r.Uvarint(),
			}
		})
	case *orderRequest:
		decodeInto(&r, t, func(r *codec.Reader) *orderRequest { return &orderRequest{Tx: r.OptBytes()} })
	case *blocksRequest:
		decodeInto(&r, t, func(r *codec.Reader) *blocksRequest { return &blocksRequest{From: r.Uvarint()} })
	case *evaluateResponse:
		decodeInto(&r, t, func(r *codec.Reader) *evaluateResponse { return &evaluateResponse{Payload: r.OptBytes()} })
	case *submitAsyncResponse:
		decodeInto(&r, t, func(r *codec.Reader) *submitAsyncResponse {
			return &submitAsyncResponse{Handle: r.Uvarint(), TxID: r.String()}
		})
	case *handleRequest:
		decodeInto(&r, t, func(r *codec.Reader) *handleRequest { return &handleRequest{Handle: r.Uvarint()} })
	case *snapshotMetaResponse:
		decodeInto(&r, t, func(r *codec.Reader) *snapshotMetaResponse {
			return &snapshotMetaResponse{Export: r.Uvarint(), Manifest: r.OptBytes()}
		})
	case *snapshotChunksRequest:
		decodeInto(&r, t, func(r *codec.Reader) *snapshotChunksRequest {
			return &snapshotChunksRequest{Export: r.Uvarint()}
		})
	case *rwset.TxPvtRWSet:
		decodeInto(&r, t, rwset.ReadTxPvtRWSet)
	case **rwset.CollPvtRWSet:
		*t = codec.ReadOpt(&r, rwset.ReadCollPvtRWSet)
	case *rwset.CollPvtRWSet:
		decodeInto(&r, t, rwset.ReadCollPvtRWSet)
	case *service.InvokeRequest:
		decodeInto(&r, t, func(r *codec.Reader) *service.InvokeRequest {
			return &service.InvokeRequest{
				Channel: r.String(), Chaincode: r.String(), Function: r.String(),
				Args: r.Strings(), Transient: r.ByteMap(),
				Endorsers: r.Strings(), EndorsersSet: r.Bool(),
			}
		})
	case *service.SubmitResult:
		decodeInto(&r, t, readSubmitResult)
	case *ledger.ProposalResponse:
		decodeInto(&r, t, ledger.ReadProposalResponse)
	default:
		return false, nil
	}
	return true, r.Done()
}

// decodeInto reads a presence marker and, when present, a value into t.
func decodeInto[T any](r *codec.Reader, t *T, dec func(*codec.Reader) *T) {
	if p := codec.ReadOpt(r, dec); p != nil {
		*t = *p
	}
}

// --- envelopes -------------------------------------------------------

func appRequest(b []byte, v *request) []byte {
	b = codec.AppendString(b, v.Method)
	b = codec.AppendVarint(b, v.Deadline)
	return codec.AppendOptBytes(b, v.Body)
}

// readRequest leaves Body aliasing the frame: envelope bodies' lifetime
// is managed explicitly.
func readRequest(r *codec.Reader) *request {
	return &request{Method: r.String(), Deadline: r.Varint(), Body: r.OptBytesAlias()}
}

func appResponse(b []byte, v *response) []byte {
	b = codec.AppendOpt(b, v.Err, func(b []byte, e *WireError) []byte {
		b = codec.AppendString(b, e.Code)
		b = codec.AppendString(b, e.Message)
		return codec.AppendVarint(b, e.RetryAfterMs)
	})
	b = codec.AppendOptBytes(b, v.Body)
	return codec.AppendBool(b, v.More)
}

func readResponse(r *codec.Reader) *response {
	return &response{
		Err: codec.ReadOpt(r, func(r *codec.Reader) *WireError {
			return &WireError{Code: r.String(), Message: r.String(), RetryAfterMs: r.Varint()}
		}),
		Body: r.OptBytesAlias(),
		More: r.Bool(),
	}
}

// Event union tags.
const (
	evTagNone   = 0
	evTagBlock  = 1
	evTagStatus = 2
	evTagChunk  = 3
)

// appEvent encodes a block event's block with ledger.AppendBlock behind
// a presence marker: the bytes after that marker are the block's
// blocks-log record body.
func appEvent(b []byte, v *event) []byte {
	switch {
	case v.Block != nil:
		b = append(b, evTagBlock)
		b = codec.AppendUvarint(b, v.Block.Number)
		b = codec.AppendOpt(b, v.Block.Block, ledger.AppendBlock)
		b = codec.AppendBool(b, v.Block.Replayed)
	case v.Status != nil:
		b = append(b, evTagStatus)
		b = appTxStatusEvent(b, v.Status)
	case v.Chunk != nil:
		b = append(b, evTagChunk)
		b = codec.AppendUvarint(b, v.Chunk.Index)
		b = codec.AppendString(b, v.Chunk.Name)
		b = codec.AppendOptBytes(b, v.Chunk.Data)
	default:
		b = append(b, evTagNone)
	}
	return b
}

func readEvent(r *codec.Reader) *event {
	v := &event{}
	switch tag := r.Byte(); tag {
	case evTagBlock:
		v.Block = &deliver.BlockEvent{
			Number:   r.Uvarint(),
			Block:    codec.ReadOpt(r, ledger.ReadBlock),
			Replayed: r.Bool(),
		}
	case evTagStatus:
		v.Status = readTxStatusEvent(r)
	case evTagChunk:
		v.Chunk = &SnapshotChunkEvent{Index: r.Uvarint(), Name: r.String(), Data: r.OptBytes()}
	case evTagNone:
	default:
		r.Fail(fmt.Errorf("event tag %d", tag))
	}
	return v
}

func appTxStatusEvent(b []byte, v *deliver.TxStatusEvent) []byte {
	b = codec.AppendUvarint(b, v.BlockNum)
	b = codec.AppendVarint(b, int64(v.TxIndex))
	b = codec.AppendString(b, v.TxID)
	b = codec.AppendVarint(b, int64(v.Code))
	b = codec.AppendString(b, v.Detail)
	b = codec.AppendStrings(b, v.MissingCollections)
	b = codec.AppendOpt(b, v.ChaincodeEvent, ledger.AppendChaincodeEvent)
	return codec.AppendBool(b, v.Replayed)
}

func readTxStatusEvent(r *codec.Reader) *deliver.TxStatusEvent {
	return &deliver.TxStatusEvent{
		BlockNum:           r.Uvarint(),
		TxIndex:            int(r.Varint()),
		TxID:               r.String(),
		Code:               ledger.ValidationCode(r.Varint()),
		Detail:             r.String(),
		MissingCollections: r.Strings(),
		ChaincodeEvent:     codec.ReadOpt(r, ledger.ReadChaincodeEvent),
		Replayed:           r.Bool(),
	}
}

// --- service ---------------------------------------------------------

func appInvokeRequest(b []byte, v *service.InvokeRequest) []byte {
	b = codec.AppendString(b, v.Channel)
	b = codec.AppendString(b, v.Chaincode)
	b = codec.AppendString(b, v.Function)
	b = codec.AppendStrings(b, v.Args)
	b = codec.AppendByteMap(b, v.Transient)
	b = codec.AppendStrings(b, v.Endorsers)
	return codec.AppendBool(b, v.EndorsersSet)
}

func appSubmitResult(b []byte, v *service.SubmitResult) []byte {
	b = codec.AppendString(b, v.TxID)
	b = codec.AppendOptBytes(b, v.Payload)
	b = codec.AppendVarint(b, int64(v.Code))
	b = codec.AppendString(b, v.Detail)
	b = codec.AppendUvarint(b, v.BlockNum)
	b = codec.AppendOpt(b, v.Event, ledger.AppendChaincodeEvent)
	b = codec.AppendStrings(b, v.MissingCollections)
	return codec.AppendVarint(b, int64(v.CommitWait))
}

func readSubmitResult(r *codec.Reader) *service.SubmitResult {
	return &service.SubmitResult{
		TxID:               r.String(),
		Payload:            r.OptBytes(),
		Code:               ledger.ValidationCode(r.Varint()),
		Detail:             r.String(),
		BlockNum:           r.Uvarint(),
		Event:              codec.ReadOpt(r, ledger.ReadChaincodeEvent),
		MissingCollections: r.Strings(),
		CommitWait:         time.Duration(r.Varint()),
	}
}

// --- RPC bodies ------------------------------------------------------

func appEndorseRequest(b []byte, v *endorseRequest) []byte {
	b = codec.AppendOpt(b, v.Proposal, ledger.AppendProposal)
	return codec.AppendByteMap(b, v.Transient)
}

func appSubscribeRequest(b []byte, v *subscribeRequest) []byte {
	b = codec.AppendUvarint(b, v.From)
	return codec.AppendBool(b, v.Live)
}

func appPvtRequest(b []byte, v *pvtRequest) []byte {
	b = codec.AppendString(b, v.TxID)
	return codec.AppendString(b, v.Collection)
}

func appInfoResponse(b []byte, v *infoResponse) []byte {
	b = codec.AppendString(b, v.Name)
	b = codec.AppendString(b, v.Org)
	b = codec.AppendString(b, v.Channel)
	b = codec.AppendUvarint(b, v.Height)
	b = codec.AppendString(b, v.StateHash)
	return codec.AppendUvarint(b, v.Base)
}

func appOrderRequest(b []byte, v *orderRequest) []byte { return codec.AppendOptBytes(b, v.Tx) }

func appBlocksRequest(b []byte, v *blocksRequest) []byte { return codec.AppendUvarint(b, v.From) }

func appEvaluateResponse(b []byte, v *evaluateResponse) []byte {
	return codec.AppendOptBytes(b, v.Payload)
}

func appSubmitAsyncResponse(b []byte, v *submitAsyncResponse) []byte {
	b = codec.AppendUvarint(b, v.Handle)
	return codec.AppendString(b, v.TxID)
}

func appHandleRequest(b []byte, v *handleRequest) []byte { return codec.AppendUvarint(b, v.Handle) }

func appSnapshotMetaResponse(b []byte, v *snapshotMetaResponse) []byte {
	b = codec.AppendUvarint(b, v.Export)
	return codec.AppendOptBytes(b, v.Manifest)
}

func appSnapshotChunksRequest(b []byte, v *snapshotChunksRequest) []byte {
	return codec.AppendUvarint(b, v.Export)
}
