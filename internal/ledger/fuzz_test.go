package ledger

import (
	"bytes"
	"testing"

	"repro/internal/rwset"
)

// FuzzParseTransaction is the canonical round-trip fuzzer for a
// transaction and the ledger objects on its path: the proposal-response
// payload and read/write set it carries, and the block that holds it.
// kind selects the decoder. Whatever a decoder accepts must re-encode to
// exactly the input. ParseTransaction seeds the Bytes cache with its
// input, so this is what keeps a transaction's DataHash contribution
// equal in every process that decodes it. Nothing may panic.
func FuzzParseTransaction(f *testing.F) {
	tx := testTx("seed")
	tx.Endorsements = []Endorsement{{Endorser: []byte("cert"), Signature: []byte("sig")}}
	prp, err := tx.ResponsePayloadParsed()
	if err != nil {
		f.Fatal(err)
	}
	prp.Event = &ChaincodeEvent{Name: "ev", Payload: []byte{}}
	b := rwset.NewBuilder()
	b.AddRead("cc", "k", rwset.KVRead{Key: "k", Version: 3})
	b.AddWrite("cc", "k", rwset.KVWrite{Key: "k", Value: []byte("v")})
	b.AddPvtWrite("coll", "p", rwset.KVWrite{Key: "p", IsDelete: true})
	set, _ := b.Build("seed")
	block := NewBlock(7, []byte{0xaa}, []*Transaction{tx, testTx("other")})
	block.Metadata.ValidationFlags[1] = MVCCConflict

	f.Add(uint8(0), tx.Bytes())
	f.Add(uint8(1), prp.Bytes())
	f.Add(uint8(2), set.Marshal())
	f.Add(uint8(3), AppendBlock(nil, block))
	f.Add(uint8(0), []byte(`{"tx_id":"x"}`))
	f.Add(uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var again []byte
		switch kind % 4 {
		case 0:
			tx, err := ParseTransaction(data)
			if err != nil {
				return
			}
			again = tx.marshal()
		case 1:
			p, err := ParseProposalResponsePayload(data)
			if err != nil {
				return
			}
			again = p.Bytes()
		case 2:
			s, err := rwset.UnmarshalTxRWSet(data)
			if err != nil {
				return
			}
			again = s.Marshal()
		case 3:
			blk, err := ParseBlock(data)
			if err != nil {
				return
			}
			again = AppendBlock(nil, blk)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("kind %d: accepted input re-encodes differently:\n got %x\nwant %x", kind%4, again, data)
		}
	})
}

// FuzzParseProposalResponsePayload checks the payload decoder on its own:
// an accepted payload re-encodes to exactly the input, and deriving its
// hashed form and read/write set never panics.
func FuzzParseProposalResponsePayload(f *testing.F) {
	b := rwset.NewBuilder()
	b.AddWrite("cc", "k", rwset.KVWrite{Key: "k", Value: []byte("v")})
	b.AddPvtWrite("coll", "p", rwset.KVWrite{Key: "p", Value: []byte("secret")})
	set, _ := b.Build("t")
	prp := &ProposalResponsePayload{
		TxID:     "t",
		Response: Response{Status: StatusOK, Payload: []byte("p")},
		Results:  set.Marshal(),
	}
	f.Add(prp.Bytes())
	f.Add([]byte(`{"response": {"status": 200}}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseProposalResponsePayload(data)
		if err != nil {
			return
		}
		if again := p.Bytes(); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, data)
		}
		_ = p.HashedPayloadForm()
		_, _ = p.RWSet()
	})
}
