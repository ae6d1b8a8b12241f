package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/deliver"
	"repro/internal/ledger"
	"repro/internal/rwset"
	"repro/internal/service"
	"repro/internal/statedb"
)

// codecSampleBodies is one fully-populated instance of every type the
// binary codec knows, exercising nested structs, maps, nil-vs-empty
// slices and negative varints.
func codecSampleBodies() []any {
	prop := &ledger.Proposal{
		TxID: "tx9", ChannelID: "c1", Chaincode: "asset", Function: "set",
		Args: []string{"k", "v"}, Creator: []byte("cert"), Nonce: []byte{1, 2, 3},
	}
	ccEvent := &ledger.ChaincodeEvent{Name: "transfer", Payload: []byte("amount=5")}
	return []any{
		&request{Method: "peer.endorse", Deadline: time.Now().Add(time.Second).UnixNano(), Body: []byte(`{"x":1}`)},
		&request{Method: "peer.info"},
		&response{Err: &WireError{Code: codeOverloaded, Message: "shed", RetryAfterMs: 250}, More: true},
		&response{Body: []byte(`{"x":1}`)},
		&event{Block: &deliver.BlockEvent{Number: 4, Replayed: true}},
		&event{Status: &deliver.TxStatusEvent{
			BlockNum: 4, TxIndex: -1, TxID: "tx9", Code: ledger.MVCCConflict,
			Detail: "conflict on k", MissingCollections: []string{"pdc1", "pdc2"},
			ChaincodeEvent: ccEvent, Replayed: true,
		}},
		&event{},
		&event{Chunk: &SnapshotChunkEvent{Index: 2, Name: "chunk-000002.snap", Data: []byte("PDCSNAP1...")}},
		&snapshotMetaResponse{Export: 5, Manifest: []byte(`{"format":1}`)},
		&snapshotChunksRequest{Export: 5},
		&endorseRequest{Proposal: prop, Transient: map[string][]byte{"pw": []byte("s3cret"), "a": nil}},
		&subscribeRequest{From: 7, Live: true},
		&pvtRequest{TxID: "tx9", Collection: "pdc1"},
		&infoResponse{Name: "peer0.org1", Org: "org1", Channel: "c1", Height: 42, StateHash: "ab12", Base: 17},
		&orderRequest{Tx: []byte(`{"tx_id":"tx9"}`)},
		&txIDRequest{TxID: "tx9"},
		&txIDRequest{}, // empty string field
		&blocksRequest{From: 9},
		&evaluateResponse{Payload: []byte("answer")},
		&submitAsyncResponse{Handle: 3, TxID: "tx9"},
		&handleRequest{Handle: 3},
		&rwset.TxPvtRWSet{TxID: "tx9", CollSets: []rwset.CollPvtRWSet{{
			Collection: "pdc1",
			Reads:      []rwset.KVRead{{Key: "k", Version: statedb.Version(11)}},
			Writes:     []rwset.KVWrite{{Key: "k", Value: []byte("v"), IsDelete: false}, {Key: "old", IsDelete: true}},
		}}},
		&rwset.CollPvtRWSet{Collection: "pdc2", Writes: []rwset.KVWrite{{Key: "k2", Value: []byte("v2")}}},
		&service.InvokeRequest{
			Channel: "c1", Chaincode: "asset", Function: "get", Args: []string{"k"},
			Transient: map[string][]byte{"pw": []byte("s3cret")},
		},
		&service.SubmitResult{
			TxID: "tx9", Payload: []byte("ok"), Code: ledger.Valid, BlockNum: 4,
			Event: ccEvent, MissingCollections: []string{"pdc1"}, CommitWait: 125 * time.Millisecond,
		},
		&ledger.ProposalResponse{
			Payload: []byte("prp"), PlainPayload: []byte("plain"),
			Response:    ledger.Response{Status: ledger.StatusError, Message: "boom", Payload: []byte("why")},
			Endorsement: ledger.Endorsement{Endorser: []byte("cert"), Signature: []byte("sig")},
		},
	}
}

// checkRoundTrip asserts the codec's two contracts on one encoding of
// a *T: decoding it and re-encoding the result reproduces the bytes
// exactly (a value has one encoding), and decoding that re-encoding
// yields an identical struct. It returns the decoded value, or nil when
// data is rejected (a valid outcome for fuzzed input; panics are not).
func checkRoundTrip(t *testing.T, sample any, data []byte) any {
	t.Helper()
	v := newZero(sample)
	if err := unmarshalBody(data, v); err != nil {
		return nil
	}
	if bytes.Equal(data, []byte{0}) {
		return v // a nil pointer's encoding: decodes to the zero value by design
	}
	again, err := marshalBody(v)
	if err != nil {
		t.Fatalf("%T: decoded value does not re-encode: %v", v, err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("%T: decode then encode changed the bytes:\n got %x\nwant %x", v, again, data)
	}
	v2 := newZero(sample)
	if err := unmarshalBody(again, v2); err != nil {
		t.Fatalf("%T: re-encoding does not decode: %v", v, err)
	}
	if !reflect.DeepEqual(v, v2) {
		t.Fatalf("%T: encode then decode changed the value:\n got %#v\nwant %#v", v, v2, v)
	}
	return v
}

// TestBinaryCodecRoundTrip pins the round-trip contract on
// deterministic, fully-populated values (FuzzCodecRoundTrip explores the
// same property from fuzzed encodings): every field survives.
func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, v := range codecSampleBodies() {
		if got := checkRoundTrip(t, v, envelope(t, v)); !reflect.DeepEqual(got, v) {
			t.Fatalf("%T: decoded %#v, want %#v", v, got, v)
		}
	}
}

// TestBinaryCodecIsCanonical: type-level values the encoder cannot
// produce are rejected, not normalized — an out-of-range status, an
// unknown event tag. The field-level cases (padded varints, map key
// order) are internal/codec's TestReaderIsCanonical.
func TestBinaryCodecIsCanonical(t *testing.T) {
	cases := []struct {
		name   string
		target any
		data   []byte
	}{
		{"status beyond int32", &ledger.ProposalResponse{},
			append(append([]byte{1, 0, 0}, codec.AppendVarint(nil, 1<<40)...), 0, 0, 0, 0)},
		{"unknown event tag", &event{}, []byte{1, 9}},
	}
	for _, c := range cases {
		if err := unmarshalBody(c.data, c.target); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%s: got %v, want a malformed-encoding error", c.name, err)
		}
	}
}

// TestBinaryCodecTypedNilPointer: peer.pvt legitimately returns a typed
// nil *CollPvtRWSet ("this peer has no such private data"); the binary
// codec must round-trip it to nil.
func TestBinaryCodecTypedNilPointer(t *testing.T) {
	data, ok := binMarshal((*rwset.CollPvtRWSet)(nil))
	if !ok {
		t.Fatal("typed nil *CollPvtRWSet not binary-marshalable")
	}
	out := &rwset.CollPvtRWSet{Collection: "poisoned"}
	if ok, err := binUnmarshal(data, &out); !ok || err != nil {
		t.Fatalf("unmarshal: ok=%v err=%v", ok, err)
	}
	if out != nil {
		t.Fatalf("typed nil decoded to %+v, want nil", out)
	}
}

// TestBinaryCodecTruncationSafe: every strict prefix of a valid binary
// encoding must fail with an error — never panic, never decode
// "successfully" into partial data. The codec is positional, so any
// truncation starves a later field.
func TestBinaryCodecTruncationSafe(t *testing.T) {
	for _, v := range codecSampleBodies() {
		full, ok := binMarshal(v)
		if !ok {
			t.Fatalf("no binary codec for %T", v)
		}
		for n := 0; n < len(full); n++ {
			fresh := newZero(v)
			if ok, err := binUnmarshal(full[:n], fresh); ok && err == nil {
				t.Fatalf("%T: prefix %d/%d decoded without error", v, n, len(full))
			}
		}
		// Trailing garbage must also be rejected: the encoding is
		// canonical, like the framing layer.
		extended := append(append([]byte{}, full...), 0xFF)
		if ok, err := binUnmarshal(extended, newZero(v)); ok && err == nil {
			t.Fatalf("%T: trailing byte accepted", v)
		}
	}
}

// TestUncataloguedTypeFailsTyped: a type the catalogue does not know is
// an encode error the caller can match, and the decoder refuses it
// rather than misparsing.
func TestUncataloguedTypeFailsTyped(t *testing.T) {
	type unknown struct{ A int }
	if _, err := marshalBody(&unknown{A: 7}); !errors.Is(err, ErrNoEncoding) {
		t.Fatalf("marshal: got %v, want ErrNoEncoding", err)
	}
	if err := unmarshalBody([]byte{1, 7}, &unknown{}); !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("unmarshal: got %v, want a malformed-encoding error", err)
	}
}

// TestBinaryBlockKeepsCanonicalTxBytes: transactions travel inside
// binary blocks as their memoized canonical serialization, so a decoded
// block re-derives the identical data hash — the property that keeps
// state hashes byte-identical across processes — and the block inside a
// block event is the same bytes the blocks log stores.
func TestBinaryBlockKeepsCanonicalTxBytes(t *testing.T) {
	tx1 := &ledger.Transaction{
		TxID: "a", ChannelID: "c1", Creator: []byte("cert"),
		Proposal: &ledger.Proposal{
			TxID: "a", ChannelID: "c1", Chaincode: "cc", Function: "f",
			Args: []string{"k", "v"}, Creator: []byte("cert"), Nonce: []byte{1, 2},
		},
		ResponsePayload: []byte("pay"),
		Endorsements:    []ledger.Endorsement{{Endorser: []byte("cert"), Signature: []byte("sig")}},
	}
	tx2 := &ledger.Transaction{TxID: "b", ChannelID: "c1", Creator: []byte("cert"), ResponsePayload: []byte("pay")}
	block := ledger.NewBlock(3, []byte{0xAA}, []*ledger.Transaction{tx1, tx2})
	block.Metadata.ValidationFlags = []ledger.ValidationCode{ledger.Valid, ledger.MVCCConflict}

	ev := &event{Block: &deliver.BlockEvent{Number: 3, Block: block, Replayed: true}}
	data, ok := binMarshal(ev)
	if !ok {
		t.Fatal("event not binary-marshalable")
	}
	if !bytes.Contains(data, ledger.AppendBlock(nil, block)) {
		t.Fatal("block event does not carry the block's canonical encoding")
	}
	var got event
	if ok, err := binUnmarshal(data, &got); !ok || err != nil {
		t.Fatalf("unmarshal: ok=%v err=%v", ok, err)
	}
	gb := got.Block.Block
	if gb == nil {
		t.Fatal("decoded event lost its block")
	}
	for i, tx := range gb.Transactions {
		if !bytes.Equal(tx.Bytes(), block.Transactions[i].Bytes()) {
			t.Fatalf("tx %d: canonical bytes changed across the binary codec", i)
		}
	}
	if !gb.VerifyDataHash() {
		t.Fatal("decoded block fails VerifyDataHash")
	}
	if !bytes.Equal(gb.Header.DataHash, block.Header.DataHash) {
		t.Fatal("data hash changed across the binary codec")
	}
	if len(gb.Metadata.ValidationFlags) != 2 || gb.Metadata.ValidationFlags[1] != ledger.MVCCConflict {
		t.Fatalf("validation flags lost: %v", gb.Metadata.ValidationFlags)
	}
}

// TestBufPoolSizeClasses pins the pool's ownership-safety basics: a
// buffer obtained for n bytes has the capacity asked for, and recycled
// buffers come back zero-length.
func TestBufPoolSizeClasses(t *testing.T) {
	for _, n := range []int{1, 100, 4 << 10, 5 << 10, 64 << 10, 1 << 20, 3 << 20} {
		b := getBuf(n)
		if len(b) != 0 {
			t.Fatalf("getBuf(%d): len = %d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Fatalf("getBuf(%d): cap = %d", n, cap(b))
		}
		b = append(b, make([]byte, n)...)
		putBuf(b)
	}
	// Oversized buffers are dropped, never pooled (bounded memory).
	putBuf(make([]byte, maxPooledBuf+1))
}

// newZero returns a fresh zero-valued instance with v's type, usable as
// a decode target.
func newZero(v any) any { return reflect.New(reflect.TypeOf(v).Elem()).Interface() }
