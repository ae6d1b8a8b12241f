package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/fabcrypto"
)

func testTx(id string) *Transaction {
	prp := &ProposalResponsePayload{
		TxID:      id,
		Chaincode: "cc",
		Response:  Response{Status: StatusOK, Payload: []byte("payload-" + id)},
		Results:   []byte(`{}`),
	}
	return &Transaction{
		TxID:            id,
		ChannelID:       "c1",
		Proposal:        &Proposal{TxID: id, Chaincode: "cc", Function: "f"},
		ResponsePayload: prp.Bytes(),
	}
}

func TestTxIDDerivation(t *testing.T) {
	nonce1, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	nonce2, _ := NewNonce()
	if bytes.Equal(nonce1, nonce2) {
		t.Fatal("nonces repeat")
	}
	creator := []byte("cert")
	id1 := NewTxID(nonce1, creator)
	if id1 != NewTxID(nonce1, creator) {
		t.Fatal("TxID not deterministic")
	}
	if id1 == NewTxID(nonce2, creator) {
		t.Fatal("different nonces gave same TxID")
	}
	if id1 == NewTxID(nonce1, []byte("other")) {
		t.Fatal("different creators gave same TxID")
	}
}

func TestProposalResponsePayloadRoundTrip(t *testing.T) {
	prp := &ProposalResponsePayload{
		TxID:     "t",
		Response: Response{Status: StatusOK, Payload: []byte("secret")},
		Results:  []byte(`{"x":1}`),
	}
	parsed, err := ParseProposalResponsePayload(prp.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if string(parsed.Response.Payload) != "secret" {
		t.Fatal("payload lost")
	}
	if _, err := ParseProposalResponsePayload([]byte("junk")); err == nil {
		t.Fatal("junk parsed")
	}
}

func TestHashedPayloadForm(t *testing.T) {
	prp := &ProposalResponsePayload{
		TxID:     "t",
		Response: Response{Status: StatusOK, Payload: []byte("secret")},
	}
	hashed := prp.HashedPayloadForm()
	if !fabcrypto.Equal(hashed.Response.Payload, fabcrypto.Hash([]byte("secret"))) {
		t.Fatal("payload not hashed")
	}
	// Original untouched.
	if string(prp.Response.Payload) != "secret" {
		t.Fatal("original mutated")
	}
	// Deterministic: recomputation matches, the client-side Feature 2
	// verification step.
	if !bytes.Equal(hashed.Bytes(), prp.HashedPayloadForm().Bytes()) {
		t.Fatal("hashed form not deterministic")
	}
	// Empty payload stays empty.
	empty := &ProposalResponsePayload{TxID: "t"}
	if len(empty.HashedPayloadForm().Response.Payload) != 0 {
		t.Fatal("empty payload hashed")
	}
}

func TestBlockChaining(t *testing.T) {
	b0 := NewBlock(0, nil, []*Transaction{testTx("a")})
	b1 := NewBlock(1, b0.Hash(), []*Transaction{testTx("b")})
	if !b0.VerifyDataHash() || !b1.VerifyDataHash() {
		t.Fatal("fresh blocks fail data hash")
	}
	if !fabcrypto.Equal(b1.Header.PrevHash, b0.Hash()) {
		t.Fatal("prev hash broken")
	}

	// Tampering with a transaction breaks the data hash.
	b0.Transactions[0].TxID = "tampered"
	if b0.VerifyDataHash() {
		t.Fatal("tampered block passes data hash")
	}
}

// TestBlockClone pins what Clone promises: the clone owns its validation
// flags and its transaction list, and shares everything immutable — the
// header and the transactions themselves.
func TestBlockClone(t *testing.T) {
	b := NewBlock(0, nil, []*Transaction{testTx("a"), testTx("b")})
	cp := b.Clone()
	cp.Metadata.ValidationFlags[0] = MVCCConflict
	if b.Metadata.ValidationFlags[0] == MVCCConflict {
		t.Fatal("clone shares metadata")
	}
	for i, tx := range cp.Transactions {
		if tx != b.Transactions[i] {
			t.Fatalf("clone copied transaction %d", i)
		}
	}
	cp.Transactions[1] = testTx("c")
	if b.Transactions[1].TxID != "b" {
		t.Fatal("clone shares the transaction list")
	}
	if !bytes.Equal(cp.Hash(), b.Hash()) {
		t.Fatal("clone hashes differently")
	}
	if empty := NewBlock(1, nil, nil).Clone(); empty.Transactions != nil || len(empty.Metadata.ValidationFlags) != 0 {
		t.Fatalf("clone of an empty block = %+v", empty)
	}
}

func TestBlockStoreAppend(t *testing.T) {
	s := NewBlockStore()
	if s.Height() != 0 || s.LastHash() != nil {
		t.Fatal("empty store not empty")
	}
	b0 := NewBlock(0, nil, []*Transaction{testTx("a")})
	if err := s.Append(b0); err != nil {
		t.Fatal(err)
	}
	b1 := NewBlock(1, s.LastHash(), []*Transaction{testTx("b"), testTx("c")})
	b1.Metadata.ValidationFlags[1] = MVCCConflict
	if err := s.Append(b1); err != nil {
		t.Fatal(err)
	}
	if s.Height() != 2 {
		t.Fatalf("height = %d", s.Height())
	}

	// Wrong number.
	if err := s.Append(NewBlock(5, s.LastHash(), nil)); err == nil {
		t.Fatal("gap accepted")
	}
	// Wrong prev hash.
	bad := NewBlock(2, []byte("bogus"), nil)
	if err := s.Append(bad); err == nil {
		t.Fatal("bad linkage accepted")
	}
	// Tampered data.
	worse := NewBlock(2, s.LastHash(), []*Transaction{testTx("d")})
	worse.Transactions[0].TxID = "swapped"
	if err := s.Append(worse); err == nil {
		t.Fatal("tampered data accepted")
	}

	// Lookup.
	tx, code, err := s.Transaction("c")
	if err != nil || tx.TxID != "c" || code != MVCCConflict {
		t.Fatalf("lookup c: %v %v %v", tx, code, err)
	}
	if _, _, err := s.Transaction("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing tx error = %v", err)
	}
	if _, err := s.Block(9); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing block found")
	}
	if got, err := s.Block(1); err != nil || got.Header.Number != 1 {
		t.Fatal("block lookup failed")
	}
}

func TestBlockStoreScan(t *testing.T) {
	s := NewBlockStore()
	_ = s.Append(NewBlock(0, nil, []*Transaction{testTx("a"), testTx("b")}))
	_ = s.Append(NewBlock(1, s.LastHash(), []*Transaction{testTx("c")}))

	var seen []string
	s.Scan(func(blockNum uint64, tx *Transaction, code ValidationCode) bool {
		seen = append(seen, fmt.Sprintf("%d:%s", blockNum, tx.TxID))
		return true
	})
	want := []string{"0:a", "0:b", "1:c"}
	if len(seen) != len(want) {
		t.Fatalf("scan = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("scan[%d] = %s, want %s", i, seen[i], want[i])
		}
	}

	// Early stop.
	count := 0
	s.Scan(func(uint64, *Transaction, ValidationCode) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop scanned %d", count)
	}
}

func TestVerifyChain(t *testing.T) {
	s := NewBlockStore()
	_ = s.Append(NewBlock(0, nil, []*Transaction{testTx("a")}))
	_ = s.Append(NewBlock(1, s.LastHash(), []*Transaction{testTx("b")}))
	if broken := s.VerifyChain(); broken != -1 {
		t.Fatalf("intact chain reports break at %d", broken)
	}
	// Tamper inside a stored block (simulating disk corruption).
	b, _ := s.Block(1)
	b.Transactions[0].Proposal.Function = "evil"
	if broken := s.VerifyChain(); broken != 1 {
		t.Fatalf("tampered chain reports %d, want 1", broken)
	}
}

func TestValidationCodeString(t *testing.T) {
	cases := map[ValidationCode]string{
		Valid:                    "VALID",
		EndorsementPolicyFailure: "ENDORSEMENT_POLICY_FAILURE",
		MVCCConflict:             "MVCC_READ_CONFLICT",
		BadPayload:               "BAD_PAYLOAD",
		BadSignature:             "BAD_SIGNATURE",
		ValidationCode(99):       "ValidationCode(99)",
	}
	for code, want := range cases {
		if code.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(code), code.String(), want)
		}
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	tx := testTx("x")
	parsed, err := ParseTransaction(tx.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.TxID != "x" || parsed.Proposal.Function != "f" {
		t.Fatalf("round trip = %+v", parsed)
	}
	prp, err := parsed.ResponsePayloadParsed()
	if err != nil || string(prp.Response.Payload) != "payload-x" {
		t.Fatalf("payload round trip: %v", err)
	}
	if _, err := ParseTransaction([]byte("nope")); err == nil {
		t.Fatal("junk transaction parsed")
	}
}

// TestChainIntegrityQuick: random batches of transactions appended as a
// chain always verify, and any single bit flip in a stored transaction
// is caught by VerifyChain.
func TestChainIntegrityQuick(t *testing.T) {
	f := func(batchSizes []uint8, flipBlock, flipByte uint16) bool {
		if len(batchSizes) == 0 {
			batchSizes = []uint8{1}
		}
		if len(batchSizes) > 8 {
			batchSizes = batchSizes[:8]
		}
		s := NewBlockStore()
		txCount := 0
		for i, n := range batchSizes {
			var txs []*Transaction
			for j := 0; j <= int(n%3); j++ {
				txCount++
				txs = append(txs, testTx(fmt.Sprintf("tx-%d-%d", i, j)))
			}
			b := NewBlock(uint64(i), s.LastHash(), txs)
			if err := s.Append(b); err != nil {
				return false
			}
		}
		if s.VerifyChain() != -1 {
			return false
		}
		// Flip one byte in one stored transaction's payload.
		target := uint64(flipBlock) % s.Height()
		b, err := s.Block(target)
		if err != nil || len(b.Transactions) == 0 {
			return false
		}
		raw := b.Transactions[0].ResponsePayload
		if len(raw) == 0 {
			return false
		}
		raw[int(flipByte)%len(raw)] ^= 0x01
		return s.VerifyChain() == int64(target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTransactionBytesMemoized: Bytes computes the canonical form once
// and returns stable bytes, ParseTransaction seeds the cache with the
// wire form, and the parsed transaction re-serializes byte-identically —
// the invariant the block data hash depends on.
func TestTransactionBytesMemoized(t *testing.T) {
	tx := testTx("memo")
	first := tx.Bytes()
	second := tx.Bytes()
	if &first[0] != &second[0] {
		t.Fatal("Bytes re-marshaled instead of serving the cache")
	}
	parsed, err := ParseTransaction(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parsed.Bytes(), first) {
		t.Fatal("parse/serialize round trip not byte-identical")
	}
	// The seeded cache is a copy: mutating the wire slice afterwards must
	// not corrupt the parsed transaction's canonical form.
	wire := append([]byte(nil), first...)
	parsed2, err := ParseTransaction(wire)
	if err != nil {
		t.Fatal(err)
	}
	wire[0] ^= 0xff
	if !bytes.Equal(parsed2.Bytes(), first) {
		t.Fatal("cache aliases the caller's wire slice")
	}
}

// TestBlockCloneSharesTransactionCache: a block clone serves each
// transaction's memoized serialization instead of re-encoding it, and
// still verifies against the data hash.
func TestBlockCloneSharesTransactionCache(t *testing.T) {
	tx := testTx("warm")
	orig := tx.Bytes()
	clone := NewBlock(0, nil, []*Transaction{tx}).Clone()
	if got := clone.Transactions[0].Bytes(); &got[0] != &orig[0] {
		t.Fatal("cloned transaction re-serialized instead of sharing the cache")
	}
	if !clone.VerifyDataHash() {
		t.Fatal("clone data hash broken")
	}
}
