package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{})
	for h := uint64(1); h <= 3; h++ {
		if err := b.State().Apply(storage.StateBatch{Height: h, Records: []storage.StateRecord{
			{Namespace: "ns", Key: "k", Value: []byte("v"), Version: h},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()

	// Simulate a crash mid-append: garbage half-record at the tail of
	// the active segment.
	seg := filepath.Join(dir, "state", segName(1))
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
	if w := b2.State().Watermark(); w != 3 {
		t.Fatalf("watermark = %d, want 3 (torn tail dropped, intact prefix kept)", w)
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The store must be appendable after repair.
	if err := b2.State().Apply(storage.StateBatch{Height: 4, Records: []storage.StateRecord{
		{Namespace: "ns", Key: "k", Value: []byte("v4"), Version: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	b2.Close()

	b3 := openTest(t, dir, storage.Options{})
	defer b3.Close()
	if w := b3.State().Watermark(); w != 4 {
		t.Fatalf("watermark after repair+append = %d, want 4", w)
	}
}

func TestDurableSealedCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{SegmentBytes: 256})
	for h := uint64(1); h <= 20; h++ {
		if err := b.State().Apply(storage.StateBatch{Height: h, Records: []storage.StateRecord{
			{Namespace: "ns", Key: fmt.Sprintf("k%d", h), Value: make([]byte, 64), Version: h},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()

	// Flip a payload byte in the middle of the first (sealed) segment:
	// not a torn tail, so recovery must refuse rather than repair.
	seg := filepath.Join(dir, "state", segName(1))
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
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{})
	if err := b.State().Apply(storage.StateBatch{Height: 1, Records: []storage.StateRecord{
		{Namespace: "ns", Key: "k", Value: []byte("v"), Version: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected crash")
	b.InjectStateFailure(boom)
	if err := b.State().Apply(storage.StateBatch{Height: 2}); !errors.Is(err, boom) {
		t.Fatalf("apply after injection: got %v, want injected error", err)
	}
	if err := b.State().Apply(storage.StateBatch{Height: 3}); !errors.Is(err, boom) {
		t.Fatalf("sticky error not sticky: %v", err)
	}
	b.Close()

	// Reopen recovers the pre-failure durable prefix.
	b2 := openTest(t, dir, storage.Options{})
	defer b2.Close()
	if w := b2.State().Watermark(); w != 1 {
		t.Fatalf("watermark = %d, want 1", w)
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

func TestDurableBlocksThroughBackend(t *testing.T) {
	dir := t.TempDir()
	b := openTest(t, dir, storage.Options{})
	b0 := ledger.NewBlock(0, nil, nil)
	b1 := ledger.NewBlock(1, b0.Hash(), nil)
	if err := b.Blocks().Append(b0); err != nil {
		t.Fatal(err)
	}
	if err := b.Blocks().Append(b1); err != nil {
		t.Fatal(err)
	}
	b.Close()

	b2 := openTest(t, dir, storage.Options{})
	defer b2.Close()
	if h := b2.Blocks().Height(); h != 2 {
		t.Fatalf("block height after reopen = %d, want 2", h)
	}
	blocks, err := b2.Blocks().ReadAll()
	if err != nil || len(blocks) != 2 {
		t.Fatalf("ReadAll = %d blocks, err %v", len(blocks), err)
	}
}

// TestDurableNoFsyncCoversBlockFile: storage.Options.NoFsync reaches the
// block file as it does the state and private logs — a no-fsync backend
// issues no fsync per appended block, the default exactly one.
func TestDurableNoFsyncCoversBlockFile(t *testing.T) {
	for _, noFsync := range []bool{false, true} {
		b := openTest(t, t.TempDir(), storage.Options{NoFsync: noFsync})
		const blocks = 3
		var prev []byte
		for i := uint64(0); i < blocks; i++ {
			blk := ledger.NewBlock(i, prev, nil)
			if err := b.Blocks().Append(blk); err != nil {
				t.Fatal(err)
			}
			prev = blk.Hash()
		}
		want := uint64(blocks)
		if noFsync {
			want = 0
		}
		if got := b.blocks.Syncs(); got != want {
			t.Errorf("NoFsync=%v: %d block-file fsyncs for %d blocks, want %d", noFsync, got, blocks, want)
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
