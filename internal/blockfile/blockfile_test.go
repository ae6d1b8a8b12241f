package blockfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/ledger"
)

func testBlocks(n int) []*ledger.Block {
	var out []*ledger.Block
	var prev []byte
	for i := 0; i < n; i++ {
		tx := &ledger.Transaction{
			TxID:            string(rune('a' + i)),
			Proposal:        &ledger.Proposal{TxID: string(rune('a' + i))},
			ResponsePayload: []byte(`{}`),
		}
		b := ledger.NewBlock(uint64(i), prev, []*ledger.Transaction{tx})
		prev = b.Hash()
		out = append(out, b)
	}
	return out
}

func TestAppendAndReadAll(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	blocks := testBlocks(3)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if s.Height() != 3 {
		t.Fatalf("height = %d", s.Height())
	}

	got, err := s.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d blocks", len(got))
	}
	for i, b := range got {
		if b.Header.Number != uint64(i) || b.Transactions[0].TxID != blocks[i].Transactions[0].TxID {
			t.Fatalf("block %d mismatch", i)
		}
	}

	// Appending can continue after a full read.
	extra := ledger.NewBlock(3, got[2].Hash(), []*ledger.Transaction{{
		TxID: "x", Proposal: &ledger.Proposal{TxID: "x"}, ResponsePayload: []byte(`{}`),
	}})
	if err := s.Append(extra); err != nil {
		t.Fatal(err)
	}
}

func TestReopenPreservesHeight(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	blocks := testBlocks(2)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Height() != 2 {
		t.Fatalf("reopened height = %d", s2.Height())
	}
	// New appends continue the chain.
	next := ledger.NewBlock(2, blocks[1].Hash(), []*ledger.Transaction{{
		TxID: "y", Proposal: &ledger.Proposal{TxID: "y"}, ResponsePayload: []byte(`{}`),
	}})
	if err := s2.Append(next); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfOrderAppendRejected(t *testing.T) {
	s, err := Open(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := testBlocks(2)
	if err := s.Append(blocks[1]); err == nil {
		t.Fatal("gap append accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBlocks(2) {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, "blocks.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-flip in the middle of the file.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v", err)
	}

	// Truncation mid-record is a torn tail: Open repairs it by dropping
	// the partial record and keeping the intact prefix.
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, true)
	if err != nil {
		t.Fatalf("truncation should be repaired, got err = %v", err)
	}
	defer s2.Close()
	if s2.Height() != 1 {
		t.Fatalf("height after torn-tail repair = %d, want 1", s2.Height())
	}
}

// TestPersistReloadQuick: random-length chains survive a close/reopen
// round trip bit-for-bit.
func TestPersistReloadQuick(t *testing.T) {
	f := func(nBlocks uint8) bool {
		n := int(nBlocks%12) + 1
		dir := t.TempDir()
		s, err := Open(dir, true)
		if err != nil {
			return false
		}
		blocks := testBlocks(n)
		for _, b := range blocks {
			if err := s.Append(b); err != nil {
				return false
			}
		}
		s.Close()
		s2, err := Open(dir, true)
		if err != nil {
			return false
		}
		defer s2.Close()
		got, err := s2.ReadAll()
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if string(got[i].Hash()) != string(blocks[i].Hash()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
