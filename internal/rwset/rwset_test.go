package rwset

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fabcrypto"
)

// TestTableI reproduces Table I of the paper: the read/write set shapes
// of the four transaction types operating on ⟨k1, val1⟩ at version 1.
func TestTableI(t *testing.T) {
	tests := []struct {
		name      string
		build     func(b *Builder)
		wantType  TxType
		wantReads []KVRead
		wantWrite []KVWrite
	}{
		{
			name: "read-only",
			build: func(b *Builder) {
				b.AddRead("cc", "k1", KVRead{Key: "k1", Version: 1})
			},
			wantType:  TxReadOnly,
			wantReads: []KVRead{{Key: "k1", Version: 1}},
			wantWrite: nil, // write set NULL
		},
		{
			name: "write-only",
			build: func(b *Builder) {
				b.AddWrite("cc", "k1", KVWrite{Key: "k1", Value: []byte("val1")})
			},
			wantType:  TxWriteOnly,
			wantReads: nil, // read set NULL
			wantWrite: []KVWrite{{Key: "k1", Value: []byte("val1"), IsDelete: false}},
		},
		{
			name: "read-write",
			build: func(b *Builder) {
				b.AddRead("cc", "k1", KVRead{Key: "k1", Version: 1})
				b.AddWrite("cc", "k1", KVWrite{Key: "k1", Value: []byte("val1")})
			},
			wantType:  TxReadWrite,
			wantReads: []KVRead{{Key: "k1", Version: 1}},
			wantWrite: []KVWrite{{Key: "k1", Value: []byte("val1"), IsDelete: false}},
		},
		{
			name: "delete-only",
			build: func(b *Builder) {
				b.AddWrite("cc", "k1", KVWrite{Key: "k1", IsDelete: true})
			},
			wantType:  TxDeleteOnly,
			wantReads: nil,                                                // read set NULL
			wantWrite: []KVWrite{{Key: "k1", Value: nil, IsDelete: true}}, // value null, is_delete true
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder()
			tt.build(b)
			set, _ := b.Build("tx1")
			if got := Classify(set); got != tt.wantType {
				t.Fatalf("Classify = %v, want %v", got, tt.wantType)
			}
			if len(set.NsRWSets) != 1 {
				t.Fatalf("namespaces = %d", len(set.NsRWSets))
			}
			ns := set.NsRWSets[0]
			if len(ns.Reads) != len(tt.wantReads) {
				t.Fatalf("reads = %+v, want %+v", ns.Reads, tt.wantReads)
			}
			for i, r := range tt.wantReads {
				if ns.Reads[i] != r {
					t.Errorf("read[%d] = %+v, want %+v", i, ns.Reads[i], r)
				}
			}
			if len(ns.Writes) != len(tt.wantWrite) {
				t.Fatalf("writes = %+v, want %+v", ns.Writes, tt.wantWrite)
			}
			for i, w := range tt.wantWrite {
				got := ns.Writes[i]
				if got.Key != w.Key || got.IsDelete != w.IsDelete || !bytes.Equal(got.Value, w.Value) {
					t.Errorf("write[%d] = %+v, want %+v", i, got, w)
				}
			}
		})
	}
}

func TestClassifyEdgeCases(t *testing.T) {
	if Classify(&TxRWSet{}) != TxEmpty {
		t.Error("empty set misclassified")
	}
	// Private-only sets classify too.
	b := NewBuilder()
	b.AddPvtRead("coll", "k", KVRead{Key: "k", Version: 2})
	set, _ := b.Build("tx")
	if Classify(set) != TxReadOnly {
		t.Error("private read-only misclassified")
	}
	b = NewBuilder()
	b.AddPvtWrite("coll", "k", KVWrite{Key: "k", IsDelete: true})
	set, _ = b.Build("tx")
	if Classify(set) != TxDeleteOnly {
		t.Error("private delete-only misclassified")
	}
	// Mixed delete+write counts as write-only per Table I grouping.
	b = NewBuilder()
	b.AddPvtWrite("coll", "k", KVWrite{Key: "k", Value: []byte("v")})
	b.AddPvtWrite("coll", "j", KVWrite{Key: "j", IsDelete: true})
	set, _ = b.Build("tx")
	if Classify(set) != TxWriteOnly {
		t.Errorf("write+delete = %v, want write-only", Classify(set))
	}
}

func TestFirstReadWinsLastWriteWins(t *testing.T) {
	b := NewBuilder()
	b.AddRead("cc", "k", KVRead{Key: "k", Version: 1})
	b.AddRead("cc", "k", KVRead{Key: "k", Version: 9}) // ignored
	b.AddWrite("cc", "k", KVWrite{Key: "k", Value: []byte("first")})
	b.AddWrite("cc", "k", KVWrite{Key: "k", Value: []byte("last")})
	set, _ := b.Build("tx")
	if set.NsRWSets[0].Reads[0].Version != 1 {
		t.Error("first read did not win")
	}
	if string(set.NsRWSets[0].Writes[0].Value) != "last" {
		t.Error("last write did not win")
	}
}

func TestHashedCollectionSets(t *testing.T) {
	b := NewBuilder()
	b.AddPvtRead("coll", "k1", KVRead{Key: "k1", Version: 3})
	b.AddPvtWrite("coll", "k2", KVWrite{Key: "k2", Value: []byte("secret")})
	set, pvt := b.Build("tx")

	if pvt == nil || len(pvt.CollSets) != 1 {
		t.Fatal("private set missing")
	}
	if len(set.CollSets) != 1 {
		t.Fatal("hashed set missing")
	}
	h := set.CollSets[0]
	if !fabcrypto.Equal(h.HashedReads[0].KeyHash, fabcrypto.HashString("k1")) {
		t.Error("read key hash wrong")
	}
	if h.HashedReads[0].Version != 3 {
		t.Error("read version not preserved in hashed form")
	}
	if !fabcrypto.Equal(h.HashedWrites[0].ValueHash, fabcrypto.Hash([]byte("secret"))) {
		t.Error("write value hash wrong")
	}
	// The cleartext never appears in the hashed set's serialization,
	// though the encoding carries values verbatim: the private set,
	// which stays off-chain, shows it.
	if bytes.Contains(set.Marshal(), []byte("secret")) {
		t.Error("cleartext leaked into hashed rwset")
	}
	if !bytes.Contains(pvt.Marshal(), []byte("secret")) {
		t.Error("private set does not carry its value verbatim")
	}
	if !MatchesHashed(&pvt.CollSets[0], &h) {
		t.Error("original does not match its own hashed form")
	}
}

func TestMatchesHashedRejectsTampering(t *testing.T) {
	orig := &CollPvtRWSet{
		Collection: "coll",
		Writes:     []KVWrite{{Key: "k", Value: []byte("v")}},
	}
	h := HashPvtCollection(orig)

	tampered := &CollPvtRWSet{
		Collection: "coll",
		Writes:     []KVWrite{{Key: "k", Value: []byte("OTHER")}},
	}
	if MatchesHashed(tampered, &h) {
		t.Error("value tampering accepted")
	}
	wrongColl := *orig
	wrongColl.Collection = "other"
	if MatchesHashed(&wrongColl, &h) {
		t.Error("collection mismatch accepted")
	}
	extra := *orig
	extra.Writes = append(extra.Writes, KVWrite{Key: "k2", Value: []byte("v2")})
	if MatchesHashed(&extra, &h) {
		t.Error("extra write accepted")
	}
	del := &CollPvtRWSet{Collection: "coll", Writes: []KVWrite{{Key: "k", IsDelete: true}}}
	if MatchesHashed(del, &h) {
		t.Error("delete/write confusion accepted")
	}
}

// TestBuilderDeterminismQuick: inserting the same operations in any order
// yields byte-identical marshaled sets — the property the client's
// consistency check depends on.
func TestBuilderDeterminismQuick(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	build := func(order []int) []byte {
		b := NewBuilder()
		for _, i := range order {
			k := keys[i%len(keys)]
			b.AddRead("cc", k, KVRead{Key: k, Version: 1})
			b.AddWrite("cc", k, KVWrite{Key: k, Value: []byte(k)})
			b.AddPvtWrite("coll", k, KVWrite{Key: k, Value: []byte(k)})
		}
		set, _ := b.Build("tx")
		return set.Marshal()
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(len(keys))
		ref := build([]int{0, 1, 2, 3, 4})
		return bytes.Equal(ref, build(order))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.AddRead("cc", "k", KVRead{Key: "k", Version: 2})
	b.AddPvtWrite("coll", "p", KVWrite{Key: "p", Value: []byte("v")})
	set, pvt := b.Build("tx")

	again, err := UnmarshalTxRWSet(set.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Marshal(), set.Marshal()) {
		t.Error("TxRWSet round trip changed bytes")
	}
	pvtAgain, err := UnmarshalTxPvtRWSet(pvt.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if pvtAgain.TxID != "tx" || len(pvtAgain.CollSets) != 1 {
		t.Error("TxPvtRWSet round trip lost data")
	}
	if _, err := UnmarshalTxRWSet([]byte("{bad")); err == nil {
		t.Error("malformed rwset accepted")
	}
	if _, err := UnmarshalTxPvtRWSet([]byte("{bad")); err == nil {
		t.Error("malformed pvt rwset accepted")
	}
}

func TestReadWriteCollections(t *testing.T) {
	b := NewBuilder()
	b.AddPvtRead("collB", "k", KVRead{Key: "k", Version: 1})
	b.AddPvtRead("collA", "k", KVRead{Key: "k", Version: 1})
	b.AddPvtWrite("collC", "k", KVWrite{Key: "k", Value: []byte("v")})
	set, _ := b.Build("tx")

	reads := ReadCollections(set)
	if len(reads) != 2 || reads[0] != "collA" || reads[1] != "collB" {
		t.Fatalf("ReadCollections = %v", reads)
	}
	writes := WriteCollections(set)
	if len(writes) != 1 || writes[0] != "collC" {
		t.Fatalf("WriteCollections = %v", writes)
	}
}

func TestEmptyPvtSetIsNil(t *testing.T) {
	b := NewBuilder()
	b.AddRead("cc", "k", KVRead{Key: "k", Version: 1})
	_, pvt := b.Build("tx")
	if pvt != nil {
		t.Fatal("public-only simulation produced a private set")
	}
	if b.HasPvtWrites() {
		t.Fatal("HasPvtWrites true with no private writes")
	}
}
