package blockfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ledger"
	"repro/internal/storage"
)

func chain(n int) []*ledger.Block {
	var blocks []*ledger.Block
	var prev []byte
	for i := 0; i < n; i++ {
		b := ledger.NewBlock(uint64(i), prev, nil)
		prev = b.Hash()
		blocks = append(blocks, b)
	}
	return blocks
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	blocks := chain(3)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// A crash mid-append leaves a length prefix with a partial body.
	path := filepath.Join(dir, "blocks.bin")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x40, 0x00, '{', '"'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, true)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	if h := s2.Height(); h != 3 {
		t.Fatalf("height = %d, want 3 (torn record dropped)", h)
	}
	// Appendable again right where the intact prefix ends.
	b3 := ledger.NewBlock(3, blocks[2].Hash(), nil)
	if err := s2.Append(b3); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	got, err := s2.ReadAll()
	if err != nil || len(got) != 4 {
		t.Fatalf("ReadAll = %d blocks, err %v", len(got), err)
	}
}

func TestOpenRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range chain(3) {
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
	raw[len(raw)/3] ^= 0xff // inside an early record, not the tail
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, true); !errors.Is(err, ErrCorrupt) || !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("open with mid-file corruption: got %v, want ErrCorrupt (both sentinels)", err)
	}
}

func TestAppendFailureIsStickyAndTyped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := chain(2)
	if err := s.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk gone")
	s.FailWrites(boom)
	if err := s.Append(blocks[1]); !errors.Is(err, boom) {
		t.Fatalf("append after FailWrites: got %v", err)
	}
	if err := s.Append(blocks[1]); !errors.Is(err, boom) {
		t.Fatalf("error not sticky: %v", err)
	}
	if h := s.Height(); h != 1 {
		t.Fatalf("height advanced past failed append: %d", h)
	}
}

func TestAppendOutOfOrderTyped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b5 := ledger.NewBlock(5, nil, nil)
	if err := s.Append(b5); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("out-of-order append: got %v, want storage.ErrCorrupt", err)
	}
}
