// Package rwset defines the read/write sets produced in the execution
// phase and consumed by the validation phase, for both public data and
// private data collections.
//
// Semantics follow §III-B1 (Table I) of the paper:
//
//   - A read-only transaction has a read set of ⟨key, version⟩ pairs and a
//     null write set.
//   - A write-only transaction has a null read set and a write set of
//     ⟨key, value, is_delete=false⟩ entries.
//   - A read-write transaction carries both.
//   - A delete-only transaction has a null read set and a write set entry
//     with is_delete=true and a null value.
//
// Private (collection) read/write sets appear in two forms: the original
// form held by PDC members and gossiped among them, and the hashed form
// ⟨hash(key), hash(value), version⟩ that is embedded in the transaction
// and distributed to every peer in the channel.
package rwset

import (
	"sort"

	"repro/internal/fabcrypto"
	"repro/internal/statedb"
)

// KVRead records that a key was read at a version during simulation. A
// zero Version means the key was absent.
type KVRead struct {
	Key     string
	Version statedb.Version
}

// KVWrite records a write or delete produced by simulation.
type KVWrite struct {
	Key      string
	Value    []byte
	IsDelete bool
}

// RangeQuery records a range scan performed during simulation together
// with the exact keys and versions it observed. The validator re-executes
// the range against the committed state and requires identical results,
// which rejects phantom reads: a key inserted into or deleted from the
// range between simulation and validation invalidates the transaction.
type RangeQuery struct {
	StartKey string
	EndKey   string
	Reads    []KVRead
}

// KVMetaWrite records an update to a key's validation parameter — the
// key-level ("state-based") endorsement policy mechanism of Fabric's
// validator_keylevel.go, the source file the paper cites for its policy
// routing analysis. Policy is a signature-policy expression.
type KVMetaWrite struct {
	Key    string
	Policy string
}

// NsRWSet is the public read/write set of one chaincode namespace.
type NsRWSet struct {
	Namespace    string
	Reads        []KVRead
	Writes       []KVWrite
	RangeQueries []RangeQuery
	MetaWrites   []KVMetaWrite
}

// CollHashedRWSet is the hashed read/write set of one private data
// collection. Keys and values are SHA-256 digests; versions are original.
// This is the only collection material embedded in a transaction.
type CollHashedRWSet struct {
	Collection   string
	HashedReads  []KVReadHash
	HashedWrites []KVWriteHash
}

// KVReadHash is a hashed private read: the SHA-256 of the key plus the
// version observed. The version is public information obtainable by any
// peer through GetPrivateDataHash — the fact the paper's endorsement
// forgery exploits.
type KVReadHash struct {
	KeyHash []byte
	Version statedb.Version
}

// KVWriteHash is a hashed private write.
type KVWriteHash struct {
	KeyHash   []byte
	ValueHash []byte
	IsDelete  bool
}

// CollPvtRWSet is the original (cleartext) private read/write set of one
// collection. It never enters a block; endorsers keep it in their
// transient store and gossip it to collection members.
type CollPvtRWSet struct {
	Collection string
	Reads      []KVRead
	Writes     []KVWrite
}

// TxRWSet is the complete simulation result of one transaction: public
// read/write sets per namespace and hashed collection read/write sets.
// This is what the proposal response carries and what validators check.
type TxRWSet struct {
	NsRWSets []NsRWSet
	CollSets []CollHashedRWSet
}

// TxPvtRWSet is the private companion of a TxRWSet: the original
// collection read/write sets, distributed off-chain.
type TxPvtRWSet struct {
	TxID     string
	CollSets []CollPvtRWSet
}

// Clone returns a deep copy of the collection set: the backing arrays of
// reads, writes and value bytes are all freshly allocated, so mutating
// the copy (or the original) cannot affect the other. The transient store
// clones on both persist and serve to keep peers' stores isolated.
func (c *CollPvtRWSet) Clone() *CollPvtRWSet {
	if c == nil {
		return nil
	}
	out := &CollPvtRWSet{Collection: c.Collection}
	if c.Reads != nil {
		out.Reads = append([]KVRead(nil), c.Reads...)
	}
	if c.Writes != nil {
		out.Writes = make([]KVWrite, len(c.Writes))
		for i, w := range c.Writes {
			out.Writes[i] = KVWrite{Key: w.Key, IsDelete: w.IsDelete}
			if w.Value != nil {
				out.Writes[i].Value = append([]byte(nil), w.Value...)
			}
		}
	}
	return out
}

// Clone returns a deep copy of the private set (see CollPvtRWSet.Clone).
func (s *TxPvtRWSet) Clone() *TxPvtRWSet {
	if s == nil {
		return nil
	}
	out := &TxPvtRWSet{TxID: s.TxID}
	if s.CollSets != nil {
		out.CollSets = make([]CollPvtRWSet, len(s.CollSets))
		for i := range s.CollSets {
			out.CollSets[i] = *s.CollSets[i].Clone()
		}
	}
	return out
}

// HashPvtCollection converts an original collection read/write set into
// its hashed form. Members verify at commit time that the gossiped
// original hashes to the in-block hashed form via this same function.
func HashPvtCollection(pvt *CollPvtRWSet) CollHashedRWSet {
	h := CollHashedRWSet{Collection: pvt.Collection}
	for _, r := range pvt.Reads {
		h.HashedReads = append(h.HashedReads, KVReadHash{
			KeyHash: fabcrypto.HashString(r.Key),
			Version: r.Version,
		})
	}
	for _, w := range pvt.Writes {
		hw := KVWriteHash{KeyHash: fabcrypto.HashString(w.Key), IsDelete: w.IsDelete}
		if !w.IsDelete {
			hw.ValueHash = fabcrypto.Hash(w.Value)
		}
		h.HashedWrites = append(h.HashedWrites, hw)
	}
	return h
}

// MatchesHashed reports whether the original private set pvt hashes
// exactly to the hashed set h (same collection, same entries in the same
// order).
func MatchesHashed(pvt *CollPvtRWSet, h *CollHashedRWSet) bool {
	computed := HashPvtCollection(pvt)
	if computed.Collection != h.Collection ||
		len(computed.HashedReads) != len(h.HashedReads) ||
		len(computed.HashedWrites) != len(h.HashedWrites) {
		return false
	}
	for i, r := range computed.HashedReads {
		o := h.HashedReads[i]
		if r.Version != o.Version || !fabcrypto.Equal(r.KeyHash, o.KeyHash) {
			return false
		}
	}
	for i, w := range computed.HashedWrites {
		o := h.HashedWrites[i]
		if w.IsDelete != o.IsDelete ||
			!fabcrypto.Equal(w.KeyHash, o.KeyHash) ||
			!fabcrypto.Equal(w.ValueHash, o.ValueHash) {
			return false
		}
	}
	return true
}

// TxType classifies a transaction by its read/write set shape, following
// Table I of the paper.
type TxType string

// Transaction types of Table I.
const (
	TxReadOnly   TxType = "read-only"
	TxWriteOnly  TxType = "write-only"
	TxReadWrite  TxType = "read-write"
	TxDeleteOnly TxType = "delete-only"
	TxEmpty      TxType = "empty"
)

// Classify returns the Table I transaction type of a complete rwset,
// considering both public and hashed-collection entries.
func Classify(s *TxRWSet) TxType {
	var reads, writes, deletes int
	for _, ns := range s.NsRWSets {
		reads += len(ns.Reads) + len(ns.RangeQueries)
		writes += len(ns.MetaWrites)
		for _, w := range ns.Writes {
			if w.IsDelete {
				deletes++
			} else {
				writes++
			}
		}
	}
	for _, c := range s.CollSets {
		reads += len(c.HashedReads)
		for _, w := range c.HashedWrites {
			if w.IsDelete {
				deletes++
			} else {
				writes++
			}
		}
	}
	switch {
	case reads == 0 && writes == 0 && deletes == 0:
		return TxEmpty
	case reads > 0 && writes == 0 && deletes == 0:
		return TxReadOnly
	case reads == 0 && deletes > 0 && writes == 0:
		return TxDeleteOnly
	case reads == 0:
		return TxWriteOnly
	default:
		return TxReadWrite
	}
}

// ReadCollections returns the sorted names of collections the transaction
// read from; used by defense Feature 1 to route read-only PDC
// transactions to collection-level endorsement policies.
func ReadCollections(s *TxRWSet) []string {
	set := make(map[string]bool)
	for _, c := range s.CollSets {
		if len(c.HashedReads) > 0 {
			set[c.Collection] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WriteCollections returns the sorted names of collections the
// transaction wrote to (including deletes); the validator uses this to
// select collection-level endorsement policies for write-related PDC
// transactions.
func WriteCollections(s *TxRWSet) []string {
	set := make(map[string]bool)
	for _, c := range s.CollSets {
		if len(c.HashedWrites) > 0 {
			set[c.Collection] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
