package rwset

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/statedb"
)

// The one encoding of the read/write sets, in the positional field codec
// of internal/codec (docs/WIRE.md "Ledger objects"). A TxRWSet travels as
// the Results of a proposal-response payload, so these bytes are part of
// what endorsers sign; a TxPvtRWSet travels between collection members.

// Marshal returns the canonical serialization of the TxRWSet. Slices are
// kept in deterministic (sorted) order by the Builder, so equal
// simulations marshal identically — the property the client's
// proposal-response consistency check relies on.
func (s *TxRWSet) Marshal() []byte {
	b := codec.AppendSlice(nil, s.NsRWSets, appendNsRWSet)
	return codec.AppendSlice(b, s.CollSets, appendCollHashedRWSet)
}

// UnmarshalTxRWSet decodes a TxRWSet serialized with Marshal.
func UnmarshalTxRWSet(b []byte) (*TxRWSet, error) {
	r := codec.NewReader(b)
	s := &TxRWSet{
		NsRWSets: codec.ReadSlice(&r, readNsRWSet),
		CollSets: codec.ReadSlice(&r, readCollHashedRWSet),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("rwset: unmarshal: %w", err)
	}
	return s, nil
}

// Marshal returns the canonical serialization of the private set.
func (s *TxPvtRWSet) Marshal() []byte { return AppendTxPvtRWSet(nil, s) }

// UnmarshalTxPvtRWSet decodes a TxPvtRWSet serialized with Marshal.
func UnmarshalTxPvtRWSet(b []byte) (*TxPvtRWSet, error) {
	r := codec.NewReader(b)
	s := ReadTxPvtRWSet(&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("rwset: unmarshal pvt: %w", err)
	}
	return s, nil
}

// AppendTxPvtRWSet appends a private set.
func AppendTxPvtRWSet(b []byte, s *TxPvtRWSet) []byte {
	b = codec.AppendString(b, s.TxID)
	return codec.AppendSlice(b, s.CollSets, func(b []byte, c CollPvtRWSet) []byte {
		return AppendCollPvtRWSet(b, &c)
	})
}

// ReadTxPvtRWSet reads what AppendTxPvtRWSet wrote.
func ReadTxPvtRWSet(r *codec.Reader) *TxPvtRWSet {
	return &TxPvtRWSet{
		TxID: r.String(),
		CollSets: codec.ReadSlice(r, func(r *codec.Reader) CollPvtRWSet {
			return *ReadCollPvtRWSet(r)
		}),
	}
}

// AppendCollPvtRWSet appends one collection's private set.
func AppendCollPvtRWSet(b []byte, c *CollPvtRWSet) []byte {
	b = codec.AppendString(b, c.Collection)
	b = codec.AppendSlice(b, c.Reads, appendKVRead)
	return codec.AppendSlice(b, c.Writes, appendKVWrite)
}

// ReadCollPvtRWSet reads what AppendCollPvtRWSet wrote.
func ReadCollPvtRWSet(r *codec.Reader) *CollPvtRWSet {
	return &CollPvtRWSet{
		Collection: r.String(),
		Reads:      codec.ReadSlice(r, readKVRead),
		Writes:     codec.ReadSlice(r, readKVWrite),
	}
}

func appendKVRead(b []byte, v KVRead) []byte {
	b = codec.AppendString(b, v.Key)
	return codec.AppendUvarint(b, uint64(v.Version))
}

func readKVRead(r *codec.Reader) KVRead {
	return KVRead{Key: r.String(), Version: statedb.Version(r.Uvarint())}
}

func appendKVWrite(b []byte, v KVWrite) []byte {
	b = codec.AppendString(b, v.Key)
	b = codec.AppendOptBytes(b, v.Value)
	return codec.AppendBool(b, v.IsDelete)
}

func readKVWrite(r *codec.Reader) KVWrite {
	return KVWrite{Key: r.String(), Value: r.OptBytes(), IsDelete: r.Bool()}
}

func appendNsRWSet(b []byte, v NsRWSet) []byte {
	b = codec.AppendString(b, v.Namespace)
	b = codec.AppendSlice(b, v.Reads, appendKVRead)
	b = codec.AppendSlice(b, v.Writes, appendKVWrite)
	b = codec.AppendSlice(b, v.RangeQueries, func(b []byte, q RangeQuery) []byte {
		b = codec.AppendString(b, q.StartKey)
		b = codec.AppendString(b, q.EndKey)
		return codec.AppendSlice(b, q.Reads, appendKVRead)
	})
	return codec.AppendSlice(b, v.MetaWrites, func(b []byte, m KVMetaWrite) []byte {
		b = codec.AppendString(b, m.Key)
		return codec.AppendString(b, m.Policy)
	})
}

func readNsRWSet(r *codec.Reader) NsRWSet {
	return NsRWSet{
		Namespace: r.String(),
		Reads:     codec.ReadSlice(r, readKVRead),
		Writes:    codec.ReadSlice(r, readKVWrite),
		RangeQueries: codec.ReadSlice(r, func(r *codec.Reader) RangeQuery {
			return RangeQuery{StartKey: r.String(), EndKey: r.String(), Reads: codec.ReadSlice(r, readKVRead)}
		}),
		MetaWrites: codec.ReadSlice(r, func(r *codec.Reader) KVMetaWrite {
			return KVMetaWrite{Key: r.String(), Policy: r.String()}
		}),
	}
}

func appendCollHashedRWSet(b []byte, v CollHashedRWSet) []byte {
	b = codec.AppendString(b, v.Collection)
	b = codec.AppendSlice(b, v.HashedReads, func(b []byte, h KVReadHash) []byte {
		b = codec.AppendOptBytes(b, h.KeyHash)
		return codec.AppendUvarint(b, uint64(h.Version))
	})
	return codec.AppendSlice(b, v.HashedWrites, func(b []byte, h KVWriteHash) []byte {
		b = codec.AppendOptBytes(b, h.KeyHash)
		b = codec.AppendOptBytes(b, h.ValueHash)
		return codec.AppendBool(b, h.IsDelete)
	})
}

func readCollHashedRWSet(r *codec.Reader) CollHashedRWSet {
	return CollHashedRWSet{
		Collection: r.String(),
		HashedReads: codec.ReadSlice(r, func(r *codec.Reader) KVReadHash {
			return KVReadHash{KeyHash: r.OptBytes(), Version: statedb.Version(r.Uvarint())}
		}),
		HashedWrites: codec.ReadSlice(r, func(r *codec.Reader) KVWriteHash {
			return KVWriteHash{KeyHash: r.OptBytes(), ValueHash: r.OptBytes(), IsDelete: r.Bool()}
		}),
	}
}
