package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ledger"
	"repro/internal/storage"
)

func openTest(t *testing.T, dir string, opts storage.Options) *Backend {
	t.Helper()
	opts.Dir = dir
	opts.NoBackgroundCompaction = true
	b, err := Open(opts)
	if err != nil {
		t.Fatalf("open durable backend: %v", err)
	}
	return b
}

// loadAll folds every durable batch into latest-per-key form, the way
// recovery sees the state.
func loadAll(t *testing.T, st storage.StateStore) map[string]storage.StateRecord {
	t.Helper()
	latest := make(map[string]storage.StateRecord)
	if err := st.Load(func(b storage.StateBatch) error {
		for _, r := range b.Records {
			latest[r.Namespace+"/"+r.Key] = r
		}
		return nil
	}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	return latest
}

func TestDurableStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{})
	st := b.State()
	for h := uint64(1); h <= 10; h++ {
		batch := storage.StateBatch{Height: h}
		for i := 0; i < 5; i++ {
			batch.Records = append(batch.Records, storage.StateRecord{
				Namespace: "ns",
				Key:       fmt.Sprintf("key-%d", i),
				Value:     []byte(fmt.Sprintf("val-%d-%d", h, i)),
				Version:   h,
			})
		}
		if err := st.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2 := openTest(t, dir, storage.Options{})
	defer b2.Close()
	if w := b2.State().Watermark(); w != 10 {
		t.Fatalf("watermark after reopen = %d, want 10", w)
	}
	latest := loadAll(t, b2.State())
	if len(latest) != 5 {
		t.Fatalf("reopened state has %d keys, want 5", len(latest))
	}
	for i := 0; i < 5; i++ {
		r := latest[fmt.Sprintf("ns/key-%d", i)]
		if string(r.Value) != fmt.Sprintf("val-10-%d", i) || r.Version != 10 {
			t.Fatalf("key-%d = %+v, want final write", i, r)
		}
	}
}

func TestDurableEmptyBatchAdvancesWatermark(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{})
	if err := b.State().Apply(storage.StateBatch{Height: 7}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b2 := openTest(t, dir, storage.Options{})
	defer b2.Close()
	if w := b2.State().Watermark(); w != 7 {
		t.Fatalf("watermark = %d, want 7 from empty batch", w)
	}
}

func TestDurableConcurrentAppliesGroupCommit(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{})
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := b.State().Apply(storage.StateBatch{
					Height: 1,
					Records: []storage.StateRecord{{
						Namespace: "ns",
						Key:       fmt.Sprintf("w%d-k%d", w, i),
						Value:     []byte("v"),
						Version:   1,
					}},
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.Close()

	b2 := openTest(t, dir, storage.Options{})
	defer b2.Close()
	if latest := loadAll(t, b2.State()); len(latest) != writers*each {
		t.Fatalf("recovered %d keys, want %d", len(latest), writers*each)
	}
}

func TestDurableSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{SegmentBytes: 512})
	for h := uint64(1); h <= 50; h++ {
		err := b.State().Apply(storage.StateBatch{Height: h, Records: []storage.StateRecord{
			{Namespace: "ns", Key: fmt.Sprintf("k%d", h), Value: make([]byte, 64), Version: h},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	b.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "state", "seg-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	b2 := openTest(t, dir, storage.Options{SegmentBytes: 512})
	defer b2.Close()
	if w := b2.State().Watermark(); w != 50 {
		t.Fatalf("watermark = %d, want 50", w)
	}
	if latest := loadAll(t, b2.State()); len(latest) != 50 {
		t.Fatalf("recovered %d keys, want 50", len(latest))
	}
}

// testChain builds a deterministic chain of n one-transaction blocks,
// each transaction flagged ledger.Valid.
func testChain(n int) []*ledger.Block {
	var out []*ledger.Block
	var prev []byte
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("tx%d", i)
		tx := &ledger.Transaction{TxID: id, Proposal: &ledger.Proposal{TxID: id}, ResponsePayload: []byte(`{}`)}
		b := ledger.NewBlock(uint64(i), prev, []*ledger.Transaction{tx})
		b.Metadata.ValidationFlags[0] = ledger.Valid
		prev = b.Hash()
		out = append(out, b)
	}
	return out
}

var testBlocks = testChain(32)

// logRow drives one of the backend's segment logs through its store, so
// each framing and recovery test runs once per log.
type logRow struct {
	name   string                           // subtest name and directory under the backend root
	write  func(b *Backend, i uint64) error // appends record i, counting from 0
	count  func(b *Backend) uint64          // records durable in b
	inject func(b *Backend, err error)
}

var logRows = []logRow{
	{
		name: "state",
		write: func(b *Backend, i uint64) error {
			return b.State().Apply(storage.StateBatch{Height: i + 1, Records: []storage.StateRecord{
				{Namespace: "ns", Key: fmt.Sprintf("k%d", i), Value: make([]byte, 64), Version: i + 1},
			}})
		},
		count:  func(b *Backend) uint64 { return b.State().Watermark() },
		inject: (*Backend).InjectStateFailure,
	},
	{
		name:   "blocks",
		write:  func(b *Backend, i uint64) error { return b.Blocks().Append(testBlocks[i]) },
		count:  func(b *Backend) uint64 { return b.Blocks().Height() },
		inject: (*Backend).InjectBlockFailure,
	},
}

func writeRecords(t *testing.T, b *Backend, row logRow, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		if err := row.write(b, i); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	for _, row := range logRows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			b := openTest(t, dir, storage.Options{})
			writeRecords(t, b, row, 3)
			b.Close()

			// Simulate a crash mid-append: garbage half-record at the tail
			// of the active segment.
			seg := filepath.Join(dir, row.name, segName(1))
			f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0xff, 0xde, 0xad}); err != nil {
				t.Fatal(err)
			}
			f.Close()
			before, _ := os.Stat(seg)

			b2 := openTest(t, dir, storage.Options{})
			if n := row.count(b2); n != 3 {
				t.Fatalf("count = %d, want 3 (torn tail dropped, intact prefix kept)", n)
			}
			after, _ := os.Stat(seg)
			if after.Size() >= before.Size() {
				t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
			}
			// The store must be appendable after repair.
			if err := row.write(b2, 3); err != nil {
				t.Fatal(err)
			}
			b2.Close()

			b3 := openTest(t, dir, storage.Options{})
			defer b3.Close()
			if n := row.count(b3); n != 4 {
				t.Fatalf("count after repair+append = %d, want 4", n)
			}
		})
	}
}

func TestDurableSealedCorruptionRejected(t *testing.T) {
	for _, row := range logRows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			b := openTest(t, dir, storage.Options{SegmentBytes: 256})
			writeRecords(t, b, row, 20)
			b.Close()

			// Flip a payload byte in the middle of the first (sealed)
			// segment: not a torn tail, so recovery must refuse rather
			// than repair.
			seg := filepath.Join(dir, row.name, segName(1))
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(seg, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(storage.Options{Dir: dir, SegmentBytes: 256, NoBackgroundCompaction: true}); !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("open with corrupt sealed segment: got %v, want ErrCorrupt", err)
			}
		})
	}
}

// recordOffsets returns the file offset of every record in a segment.
func recordOffsets(t *testing.T, seg []byte) []int {
	t.Helper()
	r := bytes.NewReader(seg)
	var offs []int
	for {
		off := len(seg) - r.Len()
		if _, err := storage.ReadRecord(r); err == io.EOF {
			return offs
		} else if err != nil {
			t.Fatalf("segment unreadable at %d: %v", off, err)
		}
		offs = append(offs, off)
	}
}

// parentJSONBlock is testBlocks[0] as the blocks log stored it when a
// recBlock body was a JSON block.
const parentJSONBlock = `{"header":{"number":0,"prev_hash":null,"data_hash":"CndNJhPVlLTr43ujBoDE1ROH7NKRwTFWZICCe3YpS3E="},` +
	`"transactions":[{"tx_id":"tx0","channel_id":"","creator":null,"proposal":{"tx_id":"tx0","channel_id":"",` +
	`"chaincode":"","function":"","creator":null,"nonce":null},"response_payload":"e30=","endorsements":null}],` +
	`"metadata":{"validation_flags":[1]}}`

// TestDurableBlockRecordTamper edits one block record on disk. The
// validation flags sit outside every hash a block carries, so only the
// record CRC catches an edit to them: in an interior record it is
// corruption, in the final record a torn tail that drops that block.
// An interior length field of 0xFFFFFFFF is corruption too, and must
// not be allocated. A log written when block records were JSON is
// corruption, never misread as blocks.
func TestDurableBlockRecordTamper(t *testing.T) {
	const blocks = 4
	// Each test block ends with its one flag, Valid, as the varint 0x02;
	// 0x06 is MVCCConflict.
	cases := []struct {
		name   string
		tamper func(t *testing.T, seg []byte) []byte
		height uint64 // after reopen; 0 means Open must fail with ErrCorrupt
	}{
		{"flags interior", func(t *testing.T, seg []byte) []byte {
			seg[recordOffsets(t, seg)[1]-1] = 0x06
			return seg
		}, 0},
		{"flags final", func(t *testing.T, seg []byte) []byte {
			seg[len(seg)-1] = 0x06
			return seg
		}, blocks - 1},
		{"length interior", func(t *testing.T, seg []byte) []byte {
			off := recordOffsets(t, seg)[1]
			copy(seg[off:], []byte{0xff, 0xff, 0xff, 0xff})
			return seg
		}, 0},
		{"JSON block record", func(t *testing.T, seg []byte) []byte {
			return storage.AppendRecord(nil, append([]byte{recBlock}, parentJSONBlock...))
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			b := openTest(t, dir, storage.Options{})
			writeRecords(t, b, logRows[1], blocks)
			b.Close()

			seg := filepath.Join(dir, "blocks", segName(1))
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if raw[len(raw)-1] != 0x02 {
				t.Fatalf("last block record ends in %#x, want its Valid flag 0x02", raw[len(raw)-1])
			}
			if err := os.WriteFile(seg, c.tamper(t, raw), 0o644); err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b2, err := Open(storage.Options{Dir: dir, NoBackgroundCompaction: true})
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > storage.MaxRecordBytes {
				t.Fatalf("open allocated %d bytes, more than MaxRecordBytes", grew)
			}
			if c.height == 0 {
				if !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("open: got %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer b2.Close()
			if h := b2.Blocks().Height(); h != c.height {
				t.Fatalf("height = %d, want %d", h, c.height)
			}
		})
	}
}

func TestDurableCompactionKeepsLatestAndTombstones(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{SegmentBytes: 1024})
	st := b.State()
	// Overwrite two keys many times, then delete one; roll plenty of
	// segments so compaction has a prefix to chew.
	var h uint64
	for round := 0; round < 40; round++ {
		h++
		if err := st.Apply(storage.StateBatch{Height: h, Records: []storage.StateRecord{
			{Namespace: "ns", Key: "hot", Value: make([]byte, 128), Version: h},
			{Namespace: "ns", Key: "doomed", Value: make([]byte, 128), Version: h},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	h++
	if err := st.Apply(storage.StateBatch{Height: h, Records: []storage.StateRecord{
		{Namespace: "ns", Key: "doomed", Version: 40, Delete: true},
	}}); err != nil {
		t.Fatal(err)
	}

	segsBefore, _ := filepath.Glob(filepath.Join(dir, "state", "seg-*.log"))
	if err := st.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	segsAfter, _ := filepath.Glob(filepath.Join(dir, "state", "seg-*.log"))
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("compaction did not shrink segment count: %d -> %d", len(segsBefore), len(segsAfter))
	}

	// A second compaction must be safe (idempotent shape).
	if err := st.Compact(); err != nil {
		t.Fatalf("second compact: %v", err)
	}
	b.Close()

	b2 := openTest(t, dir, storage.Options{SegmentBytes: 1024})
	defer b2.Close()
	if w := b2.State().Watermark(); w != h {
		t.Fatalf("watermark after compaction = %d, want %d", w, h)
	}
	latest := loadAll(t, b2.State())
	hot := latest["ns/hot"]
	if hot.Version != 40 || hot.Delete {
		t.Fatalf("hot = %+v, want version 40 put", hot)
	}
	doomed, ok := latest["ns/doomed"]
	if !ok {
		t.Fatal("tombstone for doomed was reclaimed by compaction; version continuity lost")
	}
	if !doomed.Delete || doomed.Version != 40 {
		t.Fatalf("doomed = %+v, want version-40 tombstone", doomed)
	}
}

func TestDurableCompactionConcurrentWithApplies(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{SegmentBytes: 512})
	st := b.State()
	for h := uint64(1); h <= 30; h++ {
		if err := st.Apply(storage.StateBatch{Height: h, Records: []storage.StateRecord{
			{Namespace: "ns", Key: "k", Value: make([]byte, 64), Version: h},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for h := uint64(31); h <= 60; h++ {
			if err := st.Apply(storage.StateBatch{Height: h, Records: []storage.StateRecord{
				{Namespace: "ns", Key: "k", Value: make([]byte, 64), Version: h},
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if err := st.Compact(); err != nil {
		t.Fatalf("compact during applies: %v", err)
	}
	<-done
	b.Close()

	b2 := openTest(t, dir, storage.Options{SegmentBytes: 512})
	defer b2.Close()
	latest := loadAll(t, b2.State())
	if r := latest["ns/k"]; r.Version != 60 {
		t.Fatalf("k recovered at version %d, want 60", r.Version)
	}
}

func TestDurableInjectedFailureIsSticky(t *testing.T) {
	for _, row := range logRows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			b := openTest(t, dir, storage.Options{})
			writeRecords(t, b, row, 1)
			boom := errors.New("injected crash")
			row.inject(b, boom)
			if err := row.write(b, 1); !errors.Is(err, boom) {
				t.Fatalf("write after injection: got %v, want injected error", err)
			}
			if err := row.write(b, 1); !errors.Is(err, boom) {
				t.Fatalf("sticky error not sticky: %v", err)
			}
			if n := row.count(b); n != 1 {
				t.Fatalf("count advanced past the failed write: %d", n)
			}
			b.Close()

			// Reopen recovers the pre-failure durable prefix.
			b2 := openTest(t, dir, storage.Options{})
			defer b2.Close()
			if n := row.count(b2); n != 1 {
				t.Fatalf("count after reopen = %d, want 1", n)
			}
		})
	}
}

func TestDurablePvtRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{})
	pvt := b.Pvt()
	for i := 0; i < 5; i++ {
		if err := pvt.SchedulePurge(storage.PurgeEntry{At: uint64(10 + i), Namespace: "ns", Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pvt.CompletePurge(12); err != nil {
		t.Fatal(err)
	}
	if err := pvt.RecordMissing(storage.MissingEntry{TxID: "tx1", Collection: "c1"}); err != nil {
		t.Fatal(err)
	}
	if err := pvt.RecordMissing(storage.MissingEntry{TxID: "tx2", Collection: "c2"}); err != nil {
		t.Fatal(err)
	}
	if err := pvt.ResolveMissing(storage.MissingEntry{TxID: "tx1", Collection: "c1"}); err != nil {
		t.Fatal(err)
	}
	b.Close()

	b2 := openTest(t, dir, storage.Options{})
	defer b2.Close()
	var purges []storage.PurgeEntry
	b2.Pvt().LoadPurges(func(e storage.PurgeEntry) error { purges = append(purges, e); return nil })
	if len(purges) != 2 || purges[0].At != 13 || purges[1].At != 14 {
		t.Fatalf("recovered purges = %+v, want At 13 and 14", purges)
	}
	var missing []storage.MissingEntry
	b2.Pvt().LoadMissing(func(e storage.MissingEntry) error { missing = append(missing, e); return nil })
	if len(missing) != 1 || missing[0].TxID != "tx2" {
		t.Fatalf("recovered missing = %+v, want only tx2", missing)
	}
}

func TestDurablePvtCompaction(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{SegmentBytes: 256})
	pvt := b.pvt
	for i := 0; i < 200; i++ {
		if err := pvt.SchedulePurge(storage.PurgeEntry{At: uint64(i), Namespace: "ns", Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pvt.CompletePurge(197); err != nil {
		t.Fatal(err)
	}
	if err := pvt.compact(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	b2 := openTest(t, dir, storage.Options{SegmentBytes: 256})
	defer b2.Close()
	var purges []storage.PurgeEntry
	b2.Pvt().LoadPurges(func(e storage.PurgeEntry) error { purges = append(purges, e); return nil })
	if len(purges) != 2 {
		t.Fatalf("recovered %d purges after compaction, want 2", len(purges))
	}
}

// TestDurableBlocksThroughBackend: the block log reads back what was
// appended and keeps appending after a read or a reopen, chains of
// several lengths reopen hash-identical, an append that does not extend
// the chain is typed ErrCorrupt, and a snapshot base survives a reopen
// with the chain linked to it.
func TestDurableBlocksThroughBackend(t *testing.T) {
	t.Run("append_and_read_all", func(t *testing.T) {
		b := openTest(t, t.TempDir(), storage.Options{})
		defer b.Close()
		writeRecords(t, b, logRows[1], 3)
		if h := b.Blocks().Height(); h != 3 {
			t.Fatalf("height = %d, want 3", h)
		}
		blocks, err := b.Blocks().ReadAll()
		if err != nil || len(blocks) != 3 {
			t.Fatalf("ReadAll = %d blocks, err %v; want 3", len(blocks), err)
		}
		for i, blk := range blocks {
			if blk.Header.Number != uint64(i) || blk.Transactions[0].TxID != testBlocks[i].Transactions[0].TxID {
				t.Fatalf("block %d read back as number %d tx %q", i, blk.Header.Number, blk.Transactions[0].TxID)
			}
		}
		// Appending continues after a full read.
		if err := b.Blocks().Append(testBlocks[3]); err != nil {
			t.Fatalf("append after ReadAll: %v", err)
		}
	})

	t.Run("reopen_preserves_height", func(t *testing.T) {
		dir := t.TempDir()
		b := openTest(t, dir, storage.Options{})
		writeRecords(t, b, logRows[1], 2)
		b.Close()

		b2 := openTest(t, dir, storage.Options{})
		defer b2.Close()
		if h := b2.Blocks().Height(); h != 2 {
			t.Fatalf("reopened height = %d, want 2", h)
		}
		// New appends continue the chain.
		if err := b2.Blocks().Append(testBlocks[2]); err != nil {
			t.Fatalf("append after reopen: %v", err)
		}
	})

	t.Run("persist_reload", func(t *testing.T) {
		for _, n := range []int{1, 2, 5, 12} {
			dir := t.TempDir()
			b := openTest(t, dir, storage.Options{})
			writeRecords(t, b, logRows[1], uint64(n))
			b.Close()

			b2 := openTest(t, dir, storage.Options{})
			if h := b2.Blocks().Height(); h != uint64(n) {
				t.Fatalf("block height after reopen = %d, want %d", h, n)
			}
			blocks, err := b2.Blocks().ReadAll()
			if err != nil || len(blocks) != n {
				t.Fatalf("ReadAll = %d blocks, err %v; want %d", len(blocks), err, n)
			}
			for i, blk := range blocks {
				if !bytes.Equal(blk.Hash(), testBlocks[i].Hash()) {
					t.Fatalf("block %d changed across reopen", i)
				}
			}
			b2.Close()
		}
	})

	// An append that skips ahead of the height, by one block or by
	// several, is rejected as corruption and leaves the store empty.
	for _, c := range []struct {
		name string
		next int
	}{{"gap_rejected", 1}, {"out_of_order_typed", 5}} {
		t.Run(c.name, func(t *testing.T) {
			b := openTest(t, t.TempDir(), storage.Options{})
			defer b.Close()
			if err := b.Blocks().Append(testBlocks[c.next]); !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("append of block %d to an empty store: got %v, want ErrCorrupt", c.next, err)
			}
			if h := b.Blocks().Height(); h != 0 {
				t.Fatalf("height advanced past the rejected append: %d", h)
			}
		})
	}

	t.Run("base_across_reopen", func(t *testing.T) {
		dir := t.TempDir()
		b := openTest(t, dir, storage.Options{})
		baseHash := testBlocks[4].Hash()
		for i := 0; i < 2; i++ { // a repeated install is a no-op
			if err := b.Blocks().InstallBase(5, baseHash); err != nil {
				t.Fatalf("InstallBase #%d: %v", i+1, err)
			}
		}
		if err := b.Blocks().InstallBase(6, testBlocks[5].Hash()); err == nil {
			t.Fatal("re-basing to another height succeeded")
		}
		for _, blk := range testBlocks[5:7] {
			if err := b.Blocks().Append(blk); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()

		b2 := openTest(t, dir, storage.Options{})
		defer b2.Close()
		if base, hash := b2.Blocks().Base(); base != 5 || !bytes.Equal(hash, baseHash) {
			t.Fatalf("Base after reopen = %d %x, want 5 %x", base, hash, baseHash)
		}
		if h := b2.Blocks().Height(); h != 7 {
			t.Fatalf("based height after reopen = %d, want 7", h)
		}
		if blocks, err := b2.Blocks().ReadAll(); err != nil || len(blocks) != 2 || blocks[0].Header.Number != 5 {
			t.Fatalf("ReadAll over a base = %d blocks, err %v; want blocks 5 and 6", len(blocks), err)
		}
	})
}

// TestDurableNoFsyncCoversBlockFile: storage.Options.NoFsync reaches the
// block log as it does the state and private logs — a no-fsync backend
// issues no fsync per appended block, the default exactly one.
func TestDurableNoFsyncCoversBlockFile(t *testing.T) {
	for _, noFsync := range []bool{false, true} {
		b := openTest(t, t.TempDir(), storage.Options{NoFsync: noFsync})
		const blocks = 3
		writeRecords(t, b, logRows[1], blocks)
		want := uint64(blocks)
		if noFsync {
			want = 0
		}
		if got := b.blocks.l.syncs; got != want {
			t.Errorf("NoFsync=%v: %d block-log fsyncs for %d blocks, want %d", noFsync, got, blocks, want)
		}
		b.Close()
	}
}

func TestDurableRequiresDir(t *testing.T) {
	if _, err := Open(storage.Options{}); err == nil {
		t.Fatal("Open without a directory should fail")
	}
}

func BenchmarkStorageApplyDurable(b *testing.B) {
	benchApply(b, storage.Options{Dir: b.TempDir(), NoBackgroundCompaction: true})
}

func BenchmarkStorageApplyDurableNoFsync(b *testing.B) {
	benchApply(b, storage.Options{Dir: b.TempDir(), NoFsync: true, NoBackgroundCompaction: true})
}

func benchApply(b *testing.B, opts storage.Options) {
	be, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer be.Close()
	val := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := storage.StateBatch{Height: uint64(i + 1)}
		for k := 0; k < 20; k++ {
			batch.Records = append(batch.Records, storage.StateRecord{
				Namespace: "ns", Key: fmt.Sprintf("key-%d", k), Value: val, Version: uint64(i + 1),
			})
		}
		if err := be.State().Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
}
