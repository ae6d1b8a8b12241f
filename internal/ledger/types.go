// Package ledger defines the ledger objects of the Fabric reproduction —
// proposals, proposal responses, endorsements, transactions and blocks,
// mirroring the block structure of the paper's Fig. 3 — their one
// canonical encoding (encoding.go), and the per-peer block store.
//
// A transaction carries four parts: the transaction header, the proposal,
// the proposal-response (whose Response holds the plaintext "payload"
// field central to the paper's PDC leakage analysis, and whose Results
// hold the read/write sets) and the list of endorsements.
package ledger

import (
	"crypto/rand"
	"fmt"
	"slices"
	"sync"

	"repro/internal/codec"
	"repro/internal/fabcrypto"
	"repro/internal/rwset"
)

// Proposal is a client's request that endorsers simulate a chaincode
// function (paper §II-B1: client identity, target chaincode ID, function
// name and parameters).
type Proposal struct {
	TxID      string
	ChannelID string
	Chaincode string
	Function  string
	Args      []string
	// Creator is the serialized certificate of the submitting client.
	Creator []byte
	// Nonce makes the TxID unique.
	Nonce []byte
	// Transient carries confidential inputs (e.g. private values to
	// write) that must reach the chaincode without ever entering the
	// transaction; mirrors Fabric's transient map. AppendProposal leaves
	// it out.
	Transient map[string][]byte
}

// NewTxID derives the transaction ID from a nonce and the creator's
// certificate, as Fabric does: SHA-256(nonce || creator).
func NewTxID(nonce, creator []byte) string {
	return fmt.Sprintf("%x", fabcrypto.HashConcat(nonce, creator))
}

// NewNonce returns a fresh random nonce.
func NewNonce() ([]byte, error) {
	n := make([]byte, 24)
	if _, err := rand.Read(n); err != nil {
		return nil, fmt.Errorf("ledger: nonce: %w", err)
	}
	return n, nil
}

// Response is the chaincode function's reply to the client: the paper's
// Use Case 3. Payload carries whatever the function returns — for PDC
// reads typically the private value itself, in plaintext.
type Response struct {
	Status  int32
	Message string
	Payload []byte
}

// Response status values.
const (
	StatusOK    int32 = 200
	StatusError int32 = 500
)

// ChaincodeEvent is an application event emitted by a chaincode function
// (at most one per transaction, as in Fabric). Events travel inside the
// transaction and are therefore plaintext in every peer's blockchain —
// the same exposure class as the Response payload of Use Case 3.
type ChaincodeEvent struct {
	Name    string
	Payload []byte
}

// ProposalResponsePayload is the part of a proposal response that
// endorsers sign and that ends up inside the transaction: the chaincode
// Response plus the (hashed, for PDC) read/write sets.
type ProposalResponsePayload struct {
	TxID      string
	Chaincode string
	Response  Response
	// Results is the marshaled rwset.TxRWSet.
	Results []byte
	// Event is the chaincode event, if one was set during simulation.
	Event *ChaincodeEvent
}

// Bytes returns the canonical serialization signed by endorsers.
func (p *ProposalResponsePayload) Bytes() []byte { return appendPayload(nil, p) }

// ParseProposalResponsePayload decodes a payload serialized with Bytes.
func ParseProposalResponsePayload(b []byte) (*ProposalResponsePayload, error) {
	r := codec.NewReader(b)
	p := readPayload(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("ledger: parse prp: %w", err)
	}
	return p, nil
}

// RWSet unmarshals the Results field.
func (p *ProposalResponsePayload) RWSet() (*rwset.TxRWSet, error) {
	return rwset.UnmarshalTxRWSet(p.Results)
}

// HashedPayloadForm returns a copy of the payload whose Response.Payload
// is replaced by its SHA-256 digest. This is the PR_Hash of the paper's
// defense Feature 2 (Fig. 4): the endorser signs this form, and the
// client assembles the transaction from it, so the plaintext private
// value never enters a block.
func (p *ProposalResponsePayload) HashedPayloadForm() *ProposalResponsePayload {
	cp := *p
	if len(p.Response.Payload) > 0 {
		cp.Response.Payload = fabcrypto.Hash(p.Response.Payload)
	}
	return &cp
}

// Endorsement is a peer's signature over a ProposalResponsePayload,
// together with the endorser's certificate.
type Endorsement struct {
	// Endorser is the serialized certificate of the endorsing peer.
	Endorser []byte
	// Signature covers the ProposalResponsePayload bytes carried by the
	// transaction.
	Signature []byte
}

// ProposalResponse is what an endorser returns to the client.
type ProposalResponse struct {
	// Payload is the serialized ProposalResponsePayload the endorsement
	// signature covers. Under defense Feature 2 this is the hashed
	// (PR_Hash) form.
	Payload []byte
	// PlainPayload, set only under defense Feature 2, is the serialized
	// original (PR_Ori) form, returned so the client still receives the
	// plaintext value it asked for. It is NOT covered by the signature
	// and never enters the transaction.
	PlainPayload []byte
	// Response echoes the chaincode response for client convenience.
	Response Response
	// Endorsement is the endorser's signature over Payload.
	Endorsement Endorsement
}

// Transaction is the unit of the blockchain: header fields, the original
// proposal, one agreed-upon proposal response payload and the collected
// endorsements (Fig. 3).
type Transaction struct {
	TxID      string
	ChannelID string
	// Creator is the submitting client's serialized certificate.
	Creator []byte
	// Proposal echoes the endorsed proposal.
	Proposal *Proposal
	// ResponsePayload is the serialized ProposalResponsePayload all
	// endorsers agreed on (and signed).
	ResponsePayload []byte
	// Endorsements are the collected endorser signatures.
	Endorsements []Endorsement

	// encOnce/enc memoize Bytes. A transaction is serialized repeatedly
	// on the hot path — once for its raft entry, then once per block
	// data-hash computation, wire block event and blocks-log record — but
	// its canonical form is fixed from the first serialization on, so the
	// marshal runs once. Block clones share the transaction and so the
	// cache; ParseTransaction seeds it with the parsed bytes.
	encOnce sync.Once
	enc     []byte
}

// Bytes returns the canonical serialization of the transaction,
// memoized on first use: the transaction must not be mutated afterwards,
// and callers must not modify the returned slice. Integrity checks use
// marshal instead, which never trusts the cache.
func (t *Transaction) Bytes() []byte {
	t.encOnce.Do(func() {
		t.enc = t.marshal()
	})
	return t.enc
}

// marshal serializes the transaction's current content, bypassing the
// memoized cache.
func (t *Transaction) marshal() []byte { return appendTransaction(nil, t) }

// ParseTransaction decodes a transaction serialized with Bytes. The input
// seeds the serialization cache: the encoding is canonical, so a
// transaction the decoder accepts re-marshals to exactly these bytes and
// the copy stands in for the canonical form without a marshal.
func ParseTransaction(b []byte) (*Transaction, error) {
	r := codec.NewReader(b)
	t := readTransaction(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("ledger: parse tx: %w", err)
	}
	t.encOnce.Do(func() { t.enc = append([]byte(nil), b...) })
	return t, nil
}

// ResponsePayloadParsed unmarshals the agreed proposal response payload.
func (t *Transaction) ResponsePayloadParsed() (*ProposalResponsePayload, error) {
	return ParseProposalResponsePayload(t.ResponsePayload)
}

// ValidationCode records why a transaction was marked valid or invalid
// during the validation phase.
type ValidationCode int

// Validation outcomes, mirroring Fabric's transaction validation codes.
const (
	// Valid transactions update the world state.
	Valid ValidationCode = iota + 1
	// EndorsementPolicyFailure: not enough valid endorsements.
	EndorsementPolicyFailure
	// MVCCConflict: a read version no longer matches the world state.
	MVCCConflict
	// BadPayload: the transaction is structurally broken.
	BadPayload
	// BadSignature: an endorsement signature failed verification.
	BadSignature
	// DuplicateTxID: the transaction ID already appears in the
	// blockchain — a replayed transaction.
	DuplicateTxID
)

// String renders the validation code.
func (c ValidationCode) String() string {
	switch c {
	case Valid:
		return "VALID"
	case EndorsementPolicyFailure:
		return "ENDORSEMENT_POLICY_FAILURE"
	case MVCCConflict:
		return "MVCC_READ_CONFLICT"
	case BadPayload:
		return "BAD_PAYLOAD"
	case BadSignature:
		return "BAD_SIGNATURE"
	case DuplicateTxID:
		return "DUPLICATE_TXID"
	default:
		return fmt.Sprintf("ValidationCode(%d)", int(c))
	}
}

// BlockHeader chains blocks together.
type BlockHeader struct {
	Number   uint64
	PrevHash []byte
	DataHash []byte
}

// BlockMetadata carries the validity flag vector written by validators
// (one code per transaction, same order).
type BlockMetadata struct {
	ValidationFlags []ValidationCode
}

// Block is a list of transactions plus header and metadata (Fig. 3).
type Block struct {
	Header       BlockHeader
	Transactions []*Transaction
	Metadata     BlockMetadata
}

// dataHash computes the digest over the ordered transactions, reusing
// each transaction's memoized serialization — the block-cut fast path.
func dataHash(txs []*Transaction) []byte {
	parts := make([][]byte, len(txs))
	for i, tx := range txs {
		parts[i] = tx.Bytes()
	}
	return fabcrypto.HashConcat(parts...)
}

// dataHashFresh recomputes the digest from fresh serializations of the
// transactions' current content, so a mutation made after a transaction
// was first serialized (tampering, corruption) changes the digest even
// though the memoized cache still holds the old form.
func dataHashFresh(txs []*Transaction) []byte {
	parts := make([][]byte, len(txs))
	for i, tx := range txs {
		parts[i] = tx.marshal()
	}
	return fabcrypto.HashConcat(parts...)
}

// NewBlock assembles a block at the given number linking to prevHash.
func NewBlock(number uint64, prevHash []byte, txs []*Transaction) *Block {
	return &Block{
		Header: BlockHeader{
			Number:   number,
			PrevHash: append([]byte(nil), prevHash...),
			DataHash: dataHash(txs),
		},
		Transactions: txs,
		Metadata: BlockMetadata{
			ValidationFlags: make([]ValidationCode, len(txs)),
		},
	}
}

// Hash returns the block header hash, which the next block links to.
func (b *Block) Hash() []byte { return fabcrypto.Hash(appendHeader(nil, &b.Header)) }

// VerifyDataHash checks that the block's transactions match its
// DataHash. It re-serializes every transaction from scratch: trusting
// the memoized cache here would let post-commit tampering go unnoticed.
func (b *Block) VerifyDataHash() bool {
	return fabcrypto.Equal(b.Header.DataHash, dataHashFresh(b.Transactions))
}

// Clone returns a copy of the block that owns its validation flags, so
// each peer can record its own without racing other peers. Everything
// else is shared: the header and the transactions (with their memoized
// serializations) are immutable once the block is cut.
func (b *Block) Clone() *Block {
	cp := *b
	cp.Transactions = slices.Clone(b.Transactions)
	cp.Metadata.ValidationFlags = slices.Clone(b.Metadata.ValidationFlags)
	return &cp
}
