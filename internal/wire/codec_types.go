package wire

import (
	"time"

	"repro/internal/deliver"
	"repro/internal/ledger"
	"repro/internal/rwset"
	"repro/internal/service"
	"repro/internal/statedb"
)

// This file is the binary codec's type catalogue: positional
// encoders/decoders for the frame envelopes and every hot RPC body.
// Field order is the format — docs/WIRE.md documents each layout. A
// type absent from binMarshal's switch cannot cross the wire:
// marshalBody fails it with ErrNoEncoding.

// binMarshal encodes v into a pooled buffer. ok reports whether the
// binary codec knows v's type.
func binMarshal(v any) (data []byte, ok bool) {
	b := getBuf(256)
	switch t := v.(type) {
	case *request:
		b = appRequest(b, t)
	case *response:
		b = appResponse(b, t)
	case *event:
		b = appEvent(b, t)
	case *endorseRequest:
		b = appEndorseRequest(b, t)
	case *subscribeRequest:
		b = appSubscribeRequest(b, t)
	case *pvtRequest:
		b = appPvtRequest(b, t)
	case *infoResponse:
		b = appInfoResponse(b, t)
	case *orderRequest:
		b = appOrderRequest(b, t)
	case *txIDRequest:
		b = appTxIDRequest(b, t)
	case *inPendingResponse:
		b = appInPendingResponse(b, t)
	case *blocksRequest:
		b = appBlocksRequest(b, t)
	case *evaluateResponse:
		b = appEvaluateResponse(b, t)
	case *submitAsyncResponse:
		b = appSubmitAsyncResponse(b, t)
	case *handleRequest:
		b = appHandleRequest(b, t)
	case *snapshotMetaResponse:
		b = appSnapshotMetaResponse(b, t)
	case *snapshotChunksRequest:
		b = appSnapshotChunksRequest(b, t)
	case *rwset.TxPvtRWSet:
		b = appTxPvtRWSet(b, t)
	case *rwset.CollPvtRWSet:
		b = appCollPvtRWSetPtr(b, t)
	case *service.InvokeRequest:
		b = appInvokeRequest(b, t)
	case *service.SubmitResult:
		b = appSubmitResult(b, t)
	case *ledger.ProposalResponse:
		b = appProposalResponse(b, t)
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
	r := &binReader{b: data}
	switch t := v.(type) {
	case *request:
		if p := readRequest(r); p != nil {
			*t = *p
		}
	case *response:
		if p := readResponse(r); p != nil {
			*t = *p
		}
	case *event:
		if p := readEvent(r); p != nil {
			*t = *p
		}
	case *endorseRequest:
		if r.presence() {
			t.Proposal = readProposal(r)
			t.Transient = r.byteMap()
		}
	case *subscribeRequest:
		if r.presence() {
			t.From = r.uvarint()
			t.Live = r.bool()
		}
	case *pvtRequest:
		if r.presence() {
			t.TxID = r.str()
			t.Collection = r.str()
		}
	case *infoResponse:
		if r.presence() {
			t.Name = r.str()
			t.Org = r.str()
			t.Channel = r.str()
			t.Height = r.uvarint()
			t.StateHash = r.str()
			t.Base = r.uvarint()
		}
	case *orderRequest:
		if r.presence() {
			t.Tx = r.byteSlice()
		}
	case *txIDRequest:
		if r.presence() {
			t.TxID = r.str()
		}
	case *inPendingResponse:
		if r.presence() {
			t.Pending = r.bool()
		}
	case *blocksRequest:
		if r.presence() {
			t.From = r.uvarint()
		}
	case *evaluateResponse:
		if r.presence() {
			t.Payload = r.byteSlice()
		}
	case *submitAsyncResponse:
		if r.presence() {
			t.Handle = r.uvarint()
			t.TxID = r.str()
		}
	case *handleRequest:
		if r.presence() {
			t.Handle = r.uvarint()
		}
	case *snapshotMetaResponse:
		if r.presence() {
			t.Export = r.uvarint()
			t.Manifest = r.byteSlice()
		}
	case *snapshotChunksRequest:
		if r.presence() {
			t.Export = r.uvarint()
		}
	case *rwset.TxPvtRWSet:
		if p := readTxPvtRWSet(r); p != nil {
			*t = *p
		}
	case **rwset.CollPvtRWSet:
		*t = readCollPvtRWSetPtr(r)
	case *rwset.CollPvtRWSet:
		if p := readCollPvtRWSetPtr(r); p != nil {
			*t = *p
		}
	case *service.InvokeRequest:
		if r.presence() {
			t.Channel = r.str()
			t.Chaincode = r.str()
			t.Function = r.str()
			t.Args = r.strings()
			t.Transient = r.byteMap()
			t.Endorsers = r.strings()
			t.EndorsersSet = r.bool()
		}
	case *service.SubmitResult:
		if p := readSubmitResult(r); p != nil {
			*t = *p
		}
	case *ledger.ProposalResponse:
		if p := readProposalResponse(r); p != nil {
			*t = *p
		}
	default:
		return false, nil
	}
	return true, r.done()
}

// presence reads a pointer-presence marker.
func (r *binReader) presence() bool { return r.bool() }

func appPresence(b []byte, present bool) []byte { return appendBool(b, present) }

// --- envelopes -------------------------------------------------------

func appRequest(b []byte, v *request) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendString(b, v.Method)
	b = appendVarint(b, v.Deadline)
	return appendByteSlice(b, v.Body)
}

func readRequest(r *binReader) *request {
	if !r.presence() {
		return nil
	}
	return &request{
		Method:   r.str(),
		Deadline: r.varint(),
		Body:     r.byteSliceAlias(),
	}
}

func appResponse(b []byte, v *response) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appPresence(b, v.Err != nil)
	if v.Err != nil {
		b = appendString(b, v.Err.Code)
		b = appendString(b, v.Err.Message)
		b = appendVarint(b, v.Err.RetryAfterMs)
	}
	b = appendByteSlice(b, v.Body)
	return appendBool(b, v.More)
}

func readResponse(r *binReader) *response {
	if !r.presence() {
		return nil
	}
	v := &response{}
	if r.presence() {
		v.Err = &WireError{
			Code:         r.str(),
			Message:      r.str(),
			RetryAfterMs: r.varint(),
		}
	}
	v.Body = r.byteSliceAlias()
	v.More = r.bool()
	return v
}

// Event union tags.
const (
	evTagNone   = 0
	evTagBlock  = 1
	evTagStatus = 2
	evTagChunk  = 3
)

func appEvent(b []byte, v *event) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	switch {
	case v.Block != nil:
		b = append(b, evTagBlock)
		b = appendUvarint(b, v.Block.Number)
		b = appBlock(b, v.Block.Block)
		b = appendBool(b, v.Block.Replayed)
	case v.Status != nil:
		b = append(b, evTagStatus)
		b = appTxStatusEvent(b, v.Status)
	case v.Chunk != nil:
		b = append(b, evTagChunk)
		b = appendUvarint(b, v.Chunk.Index)
		b = appendString(b, v.Chunk.Name)
		b = appendByteSlice(b, v.Chunk.Data)
	default:
		b = append(b, evTagNone)
	}
	return b
}

func readEvent(r *binReader) *event {
	if !r.presence() {
		return nil
	}
	if r.err != nil || r.remaining() < 1 {
		r.fail("event tag")
		return nil
	}
	tag := r.b[r.off]
	r.off++
	v := &event{}
	switch tag {
	case evTagBlock:
		v.Block = &deliver.BlockEvent{
			Number:   r.uvarint(),
			Block:    readBlock(r),
			Replayed: r.bool(),
		}
	case evTagStatus:
		v.Status = readTxStatusEvent(r)
	case evTagChunk:
		v.Chunk = &SnapshotChunkEvent{
			Index: r.uvarint(),
			Name:  r.str(),
			Data:  r.byteSlice(),
		}
	case evTagNone:
	default:
		r.fail("event tag")
		return nil
	}
	return v
}

func appTxStatusEvent(b []byte, v *deliver.TxStatusEvent) []byte {
	b = appendUvarint(b, v.BlockNum)
	b = appendVarint(b, int64(v.TxIndex))
	b = appendString(b, v.TxID)
	b = appendVarint(b, int64(v.Code))
	b = appendString(b, v.Detail)
	b = appendStrings(b, v.MissingCollections)
	b = appChaincodeEvent(b, v.ChaincodeEvent)
	return appendBool(b, v.Replayed)
}

func readTxStatusEvent(r *binReader) *deliver.TxStatusEvent {
	return &deliver.TxStatusEvent{
		BlockNum:           r.uvarint(),
		TxIndex:            int(r.varint()),
		TxID:               r.str(),
		Code:               ledger.ValidationCode(r.varint()),
		Detail:             r.str(),
		MissingCollections: r.strings(),
		ChaincodeEvent:     readChaincodeEvent(r),
		Replayed:           r.bool(),
	}
}

// --- ledger ----------------------------------------------------------

// appBlock encodes a block. Transactions travel as their canonical
// serialization (ledger.Transaction.Bytes(), memoized JSON): encoding
// is a copy of already-computed bytes, and decoding through
// ledger.ParseTransaction seeds the far side's cache with the identical
// canonical form — the block data hash, and therefore the state hash,
// is byte-identical across processes by construction.
func appBlock(b []byte, v *ledger.Block) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendUvarint(b, v.Header.Number)
	b = appendByteSlice(b, v.Header.PrevHash)
	b = appendByteSlice(b, v.Header.DataHash)
	b = appendCount(b, len(v.Transactions), v.Transactions == nil)
	for _, tx := range v.Transactions {
		if tx == nil {
			b = append(b, 0)
			continue
		}
		b = appendByteSlice(b, tx.Bytes())
	}
	b = appendCount(b, len(v.Metadata.ValidationFlags), v.Metadata.ValidationFlags == nil)
	for _, f := range v.Metadata.ValidationFlags {
		b = appendVarint(b, int64(f))
	}
	return b
}

func readBlock(r *binReader) *ledger.Block {
	if !r.presence() {
		return nil
	}
	v := &ledger.Block{}
	v.Header.Number = r.uvarint()
	v.Header.PrevHash = r.byteSlice()
	v.Header.DataHash = r.byteSlice()
	if n := r.count(); n >= 0 && r.err == nil {
		v.Transactions = make([]*ledger.Transaction, 0, n)
		for i := 0; i < n; i++ {
			raw := r.byteSliceAlias()
			if r.err != nil {
				return nil
			}
			if raw == nil {
				v.Transactions = append(v.Transactions, nil)
				continue
			}
			tx, err := ledger.ParseTransaction(raw)
			if err != nil {
				r.setErr(err)
				return nil
			}
			v.Transactions = append(v.Transactions, tx)
		}
	}
	if n := r.count(); n >= 0 && r.err == nil {
		v.Metadata.ValidationFlags = make([]ledger.ValidationCode, n)
		for i := range v.Metadata.ValidationFlags {
			v.Metadata.ValidationFlags[i] = ledger.ValidationCode(r.varint())
		}
	}
	return v
}

func appChaincodeEvent(b []byte, v *ledger.ChaincodeEvent) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendString(b, v.Name)
	return appendByteSlice(b, v.Payload)
}

func readChaincodeEvent(r *binReader) *ledger.ChaincodeEvent {
	if !r.presence() {
		return nil
	}
	return &ledger.ChaincodeEvent{Name: r.str(), Payload: r.byteSlice()}
}

// appProposal excludes the transient map, exactly as the JSON form does
// (`json:"-"`): confidential inputs never ride inside a proposal.
func appProposal(b []byte, v *ledger.Proposal) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendString(b, v.TxID)
	b = appendString(b, v.ChannelID)
	b = appendString(b, v.Chaincode)
	b = appendString(b, v.Function)
	b = appendStrings(b, v.Args)
	b = appendByteSlice(b, v.Creator)
	return appendByteSlice(b, v.Nonce)
}

func readProposal(r *binReader) *ledger.Proposal {
	if !r.presence() {
		return nil
	}
	return &ledger.Proposal{
		TxID:      r.str(),
		ChannelID: r.str(),
		Chaincode: r.str(),
		Function:  r.str(),
		Args:      r.strings(),
		Creator:   r.byteSlice(),
		Nonce:     r.byteSlice(),
	}
}

func appProposalResponse(b []byte, v *ledger.ProposalResponse) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendByteSlice(b, v.Payload)
	b = appendByteSlice(b, v.PlainPayload)
	b = appendVarint(b, int64(v.Response.Status))
	b = appendString(b, v.Response.Message)
	b = appendByteSlice(b, v.Response.Payload)
	b = appendByteSlice(b, v.Endorsement.Endorser)
	return appendByteSlice(b, v.Endorsement.Signature)
}

func readProposalResponse(r *binReader) *ledger.ProposalResponse {
	if !r.presence() {
		return nil
	}
	v := &ledger.ProposalResponse{}
	v.Payload = r.byteSlice()
	v.PlainPayload = r.byteSlice()
	status := r.varint()
	if status != int64(int32(status)) {
		r.fail("response status")
	}
	v.Response.Status = int32(status)
	v.Response.Message = r.str()
	v.Response.Payload = r.byteSlice()
	v.Endorsement.Endorser = r.byteSlice()
	v.Endorsement.Signature = r.byteSlice()
	return v
}

// --- rwset -----------------------------------------------------------

func appCollPvtRWSet(b []byte, v *rwset.CollPvtRWSet) []byte {
	b = appendString(b, v.Collection)
	b = appendCount(b, len(v.Reads), v.Reads == nil)
	for _, rd := range v.Reads {
		b = appendString(b, rd.Key)
		b = appendUvarint(b, uint64(rd.Version))
	}
	b = appendCount(b, len(v.Writes), v.Writes == nil)
	for _, w := range v.Writes {
		b = appendString(b, w.Key)
		b = appendByteSlice(b, w.Value)
		b = appendBool(b, w.IsDelete)
	}
	return b
}

func readCollPvtRWSet(r *binReader) rwset.CollPvtRWSet {
	v := rwset.CollPvtRWSet{Collection: r.str()}
	if n := r.count(); n >= 0 && r.err == nil {
		v.Reads = make([]rwset.KVRead, n)
		for i := range v.Reads {
			v.Reads[i] = rwset.KVRead{Key: r.str(), Version: statedb.Version(r.uvarint())}
		}
	}
	if n := r.count(); n >= 0 && r.err == nil {
		v.Writes = make([]rwset.KVWrite, n)
		for i := range v.Writes {
			v.Writes[i] = rwset.KVWrite{Key: r.str(), Value: r.byteSlice(), IsDelete: r.bool()}
		}
	}
	return v
}

// appCollPvtRWSetPtr adds the presence marker peer.pvt needs: "no such
// private data" travels as nil.
func appCollPvtRWSetPtr(b []byte, v *rwset.CollPvtRWSet) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	return appCollPvtRWSet(b, v)
}

func readCollPvtRWSetPtr(r *binReader) *rwset.CollPvtRWSet {
	if !r.presence() {
		return nil
	}
	v := readCollPvtRWSet(r)
	return &v
}

func appTxPvtRWSet(b []byte, v *rwset.TxPvtRWSet) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendString(b, v.TxID)
	b = appendCount(b, len(v.CollSets), v.CollSets == nil)
	for i := range v.CollSets {
		b = appCollPvtRWSet(b, &v.CollSets[i])
	}
	return b
}

func readTxPvtRWSet(r *binReader) *rwset.TxPvtRWSet {
	if !r.presence() {
		return nil
	}
	v := &rwset.TxPvtRWSet{TxID: r.str()}
	if n := r.count(); n >= 0 && r.err == nil {
		v.CollSets = make([]rwset.CollPvtRWSet, n)
		for i := range v.CollSets {
			v.CollSets[i] = readCollPvtRWSet(r)
		}
	}
	return v
}

// --- service ---------------------------------------------------------

func appInvokeRequest(b []byte, v *service.InvokeRequest) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendString(b, v.Channel)
	b = appendString(b, v.Chaincode)
	b = appendString(b, v.Function)
	b = appendStrings(b, v.Args)
	b = appendByteMap(b, v.Transient)
	b = appendStrings(b, v.Endorsers)
	return appendBool(b, v.EndorsersSet)
}

func appSubmitResult(b []byte, v *service.SubmitResult) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendString(b, v.TxID)
	b = appendByteSlice(b, v.Payload)
	b = appendVarint(b, int64(v.Code))
	b = appendString(b, v.Detail)
	b = appendUvarint(b, v.BlockNum)
	b = appChaincodeEvent(b, v.Event)
	b = appendStrings(b, v.MissingCollections)
	return appendVarint(b, int64(v.CommitWait))
}

func readSubmitResult(r *binReader) *service.SubmitResult {
	if !r.presence() {
		return nil
	}
	v := &service.SubmitResult{}
	v.TxID = r.str()
	v.Payload = r.byteSlice()
	v.Code = ledger.ValidationCode(r.varint())
	v.Detail = r.str()
	v.BlockNum = r.uvarint()
	v.Event = readChaincodeEvent(r)
	v.MissingCollections = r.strings()
	v.CommitWait = time.Duration(r.varint())
	return v
}

// --- RPC bodies ------------------------------------------------------

func appEndorseRequest(b []byte, v *endorseRequest) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appProposal(b, v.Proposal)
	return appendByteMap(b, v.Transient)
}

func appSubscribeRequest(b []byte, v *subscribeRequest) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendUvarint(b, v.From)
	return appendBool(b, v.Live)
}

func appPvtRequest(b []byte, v *pvtRequest) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendString(b, v.TxID)
	return appendString(b, v.Collection)
}

func appInfoResponse(b []byte, v *infoResponse) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendString(b, v.Name)
	b = appendString(b, v.Org)
	b = appendString(b, v.Channel)
	b = appendUvarint(b, v.Height)
	b = appendString(b, v.StateHash)
	return appendUvarint(b, v.Base)
}

func appOrderRequest(b []byte, v *orderRequest) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	return appendByteSlice(b, v.Tx)
}

func appTxIDRequest(b []byte, v *txIDRequest) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	return appendString(b, v.TxID)
}

func appInPendingResponse(b []byte, v *inPendingResponse) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	return appendBool(b, v.Pending)
}

func appBlocksRequest(b []byte, v *blocksRequest) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	return appendUvarint(b, v.From)
}

func appEvaluateResponse(b []byte, v *evaluateResponse) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	return appendByteSlice(b, v.Payload)
}

func appSubmitAsyncResponse(b []byte, v *submitAsyncResponse) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendUvarint(b, v.Handle)
	return appendString(b, v.TxID)
}

func appHandleRequest(b []byte, v *handleRequest) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	return appendUvarint(b, v.Handle)
}

func appSnapshotMetaResponse(b []byte, v *snapshotMetaResponse) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	b = appendUvarint(b, v.Export)
	return appendByteSlice(b, v.Manifest)
}

func appSnapshotChunksRequest(b []byte, v *snapshotChunksRequest) []byte {
	b = appPresence(b, v != nil)
	if v == nil {
		return b
	}
	return appendUvarint(b, v.Export)
}
