package ledger

import (
	"fmt"

	"repro/internal/codec"
)

// The one encoding of every ledger object, in the positional field codec
// of internal/codec (docs/WIRE.md "Ledger objects" lists the layouts).
// These bytes are what endorsers sign (the proposal-response payload),
// what DataHash and Block.Hash digest, what the orderer orders, what a
// wire block event carries and what the blocks log stores. Field order
// is the format.

// AppendProposal appends a proposal without its transient map:
// confidential inputs never ride inside a proposal.
func AppendProposal(b []byte, p *Proposal) []byte {
	b = codec.AppendString(b, p.TxID)
	b = codec.AppendString(b, p.ChannelID)
	b = codec.AppendString(b, p.Chaincode)
	b = codec.AppendString(b, p.Function)
	b = codec.AppendStrings(b, p.Args)
	b = codec.AppendOptBytes(b, p.Creator)
	return codec.AppendOptBytes(b, p.Nonce)
}

// ReadProposal reads what AppendProposal wrote.
func ReadProposal(r *codec.Reader) *Proposal {
	return &Proposal{
		TxID:      r.String(),
		ChannelID: r.String(),
		Chaincode: r.String(),
		Function:  r.String(),
		Args:      r.Strings(),
		Creator:   r.OptBytes(),
		Nonce:     r.OptBytes(),
	}
}

func appendResponse(b []byte, v Response) []byte {
	b = codec.AppendVarint(b, int64(v.Status))
	b = codec.AppendString(b, v.Message)
	return codec.AppendOptBytes(b, v.Payload)
}

func readResponse(r *codec.Reader) Response {
	status := r.Varint()
	if status != int64(int32(status)) {
		r.Fail(fmt.Errorf("response status %d out of range", status))
	}
	return Response{Status: int32(status), Message: r.String(), Payload: r.OptBytes()}
}

// AppendChaincodeEvent appends a chaincode event.
func AppendChaincodeEvent(b []byte, v *ChaincodeEvent) []byte {
	b = codec.AppendString(b, v.Name)
	return codec.AppendOptBytes(b, v.Payload)
}

// ReadChaincodeEvent reads what AppendChaincodeEvent wrote.
func ReadChaincodeEvent(r *codec.Reader) *ChaincodeEvent {
	return &ChaincodeEvent{Name: r.String(), Payload: r.OptBytes()}
}

func appendPayload(b []byte, p *ProposalResponsePayload) []byte {
	b = codec.AppendString(b, p.TxID)
	b = codec.AppendString(b, p.Chaincode)
	b = appendResponse(b, p.Response)
	b = codec.AppendOptBytes(b, p.Results)
	return codec.AppendOpt(b, p.Event, AppendChaincodeEvent)
}

func readPayload(r *codec.Reader) *ProposalResponsePayload {
	return &ProposalResponsePayload{
		TxID:      r.String(),
		Chaincode: r.String(),
		Response:  readResponse(r),
		Results:   r.OptBytes(),
		Event:     codec.ReadOpt(r, ReadChaincodeEvent),
	}
}

func appendEndorsement(b []byte, e Endorsement) []byte {
	b = codec.AppendOptBytes(b, e.Endorser)
	return codec.AppendOptBytes(b, e.Signature)
}

func readEndorsement(r *codec.Reader) Endorsement {
	return Endorsement{Endorser: r.OptBytes(), Signature: r.OptBytes()}
}

// AppendProposalResponse appends an endorser's reply to a proposal.
func AppendProposalResponse(b []byte, v *ProposalResponse) []byte {
	b = codec.AppendOptBytes(b, v.Payload)
	b = codec.AppendOptBytes(b, v.PlainPayload)
	b = appendResponse(b, v.Response)
	return appendEndorsement(b, v.Endorsement)
}

// ReadProposalResponse reads what AppendProposalResponse wrote.
func ReadProposalResponse(r *codec.Reader) *ProposalResponse {
	return &ProposalResponse{
		Payload:      r.OptBytes(),
		PlainPayload: r.OptBytes(),
		Response:     readResponse(r),
		Endorsement:  readEndorsement(r),
	}
}

func appendTransaction(b []byte, t *Transaction) []byte {
	b = codec.AppendString(b, t.TxID)
	b = codec.AppendString(b, t.ChannelID)
	b = codec.AppendOptBytes(b, t.Creator)
	b = codec.AppendOpt(b, t.Proposal, AppendProposal)
	b = codec.AppendOptBytes(b, t.ResponsePayload)
	return codec.AppendSlice(b, t.Endorsements, appendEndorsement)
}

func readTransaction(r *codec.Reader) *Transaction {
	return &Transaction{
		TxID:            r.String(),
		ChannelID:       r.String(),
		Creator:         r.OptBytes(),
		Proposal:        codec.ReadOpt(r, ReadProposal),
		ResponsePayload: r.OptBytes(),
		Endorsements:    codec.ReadSlice(r, readEndorsement),
	}
}

func appendHeader(b []byte, h *BlockHeader) []byte {
	b = codec.AppendUvarint(b, h.Number)
	b = codec.AppendOptBytes(b, h.PrevHash)
	return codec.AppendOptBytes(b, h.DataHash)
}

// AppendBlock appends a block. Each transaction is its canonical
// serialization (Transaction.Bytes, memoized), length-prefixed, so
// encoding a block copies bytes already computed and decoding seeds each
// transaction's cache with exactly the bytes DataHash covers. Callers
// that carry an optional block add their own presence marker.
func AppendBlock(b []byte, blk *Block) []byte {
	b = appendHeader(b, &blk.Header)
	b = codec.AppendSlice(b, blk.Transactions, func(b []byte, tx *Transaction) []byte {
		return codec.AppendBytes(b, tx.Bytes())
	})
	return codec.AppendSlice(b, blk.Metadata.ValidationFlags, func(b []byte, f ValidationCode) []byte {
		return codec.AppendVarint(b, int64(f))
	})
}

// ReadBlock reads what AppendBlock wrote.
func ReadBlock(r *codec.Reader) *Block {
	blk := &Block{}
	blk.Header.Number = r.Uvarint()
	blk.Header.PrevHash = r.OptBytes()
	blk.Header.DataHash = r.OptBytes()
	blk.Transactions = codec.ReadSlice(r, func(r *codec.Reader) *Transaction {
		tx, err := ParseTransaction(r.Bytes())
		if err != nil {
			r.Fail(err)
		}
		return tx
	})
	blk.Metadata.ValidationFlags = codec.ReadSlice(r, func(r *codec.Reader) ValidationCode {
		return ValidationCode(r.Varint())
	})
	return blk
}

// ParseBlock decodes a block serialized with AppendBlock.
func ParseBlock(b []byte) (*Block, error) {
	r := codec.NewReader(b)
	blk := ReadBlock(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("ledger: parse block: %w", err)
	}
	return blk, nil
}
