// Package codec is the field codec every encoding in the system is built
// from: ledger objects (what endorsers sign, what blocks hash, what the
// blocks log stores), wire bodies, disk record bodies and snapshot
// records. It knows fields, never types: each owning package writes its
// types' fields in a fixed order with the Append functions and reads them
// back in the same order with a Reader. Field order is the format, and
// the encoding carries no field names or tags.
//
// Integers are varints (unsigned LEB128; signed values zigzag). Strings
// and plain byte strings carry a uvarint length prefix. The Opt forms of
// byte slices, and collection counts, are nil-aware: 0 encodes nil and
// n+1 encodes n, so nil and empty round-trip as themselves. Pointers
// carry a one-byte presence marker (AppendOpt / ReadOpt).
//
// The encoding is canonical — a value has exactly one encoding — so
// Reader rejects input the Append functions could not have produced
// (padded varints, a bool other than 0 or 1, unsorted or repeated map
// keys, trailing bytes) rather than normalizing it.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// ErrMalformed is the root of every decode failure.
var ErrMalformed = errors.New("codec: malformed encoding")

// AppendUvarint appends an unsigned varint.
func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendVarint appends a zigzag-encoded signed varint.
func AppendVarint(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// AppendBool appends one byte, 1 for true and 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends s with a uvarint length prefix; nil and empty
// encode alike.
func AppendBytes(b, s []byte) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendOptBytes appends a nil-aware byte slice.
func AppendOptBytes(b, s []byte) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = AppendUvarint(b, uint64(len(s))+1)
	return append(b, s...)
}

// appendCount appends a nil-aware element count (0 = nil collection).
func appendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return AppendUvarint(b, uint64(n)+1)
}

// AppendStrings appends a nil-aware string list.
func AppendStrings(b []byte, ss []string) []byte { return AppendSlice(b, ss, AppendString) }

// AppendByteMap appends a nil-aware map[string][]byte with keys in sorted
// order, so the encoding of a map is deterministic.
func AppendByteMap(b []byte, m map[string][]byte) []byte {
	b = appendCount(b, len(m), m == nil)
	if len(m) == 0 {
		return b
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = AppendString(b, k)
		b = AppendOptBytes(b, m[k])
	}
	return b
}

// AppendOpt appends v's presence marker and, when v is not nil, v itself
// through enc.
func AppendOpt[T any](b []byte, v *T, enc func([]byte, *T) []byte) []byte {
	if v == nil {
		return append(b, 0)
	}
	return enc(append(b, 1), v)
}

// ReadOpt reads what AppendOpt wrote: nil when the presence marker is 0,
// otherwise the value dec reads.
func ReadOpt[T any](r *Reader, dec func(*Reader) *T) *T {
	if !r.Bool() {
		return nil
	}
	return dec(r)
}

// AppendSlice appends a nil-aware count and then each element through
// enc.
func AppendSlice[T any](b []byte, s []T, enc func([]byte, T) []byte) []byte {
	b = appendCount(b, len(s), s == nil)
	for _, v := range s {
		b = enc(b, v)
	}
	return b
}

// ReadSlice reads what AppendSlice wrote. The slice grows as elements
// decode, so a count the input cannot back costs no more memory than the
// elements actually present.
func ReadSlice[T any](r *Reader, dec func(*Reader) T) []T {
	n := r.count()
	if n < 0 {
		return nil
	}
	out := make([]T, 0, min(n, 64))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, dec(r))
	}
	return out
}

// Reader decodes fields with a sticky error: after the first failure
// every read returns a zero value, so decoders read straight through and
// check Done once. Every length is checked against the remaining input
// before anything is allocated, so corrupt input cannot force an
// oversized allocation.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail records err as the sticky error unless one is already set,
// wrapping it in ErrMalformed if it does not wrap it yet. Decoders use it
// for a field that is well formed but out of range, or for a nested value
// that fails to decode.
func (r *Reader) Fail(err error) {
	switch {
	case r.err != nil:
	case errors.Is(err, ErrMalformed):
		r.err = err
	default:
		r.err = fmt.Errorf("%w: %w", ErrMalformed, err)
	}
}

func (r *Reader) fail(what string) {
	r.Fail(fmt.Errorf("truncated or invalid %s at offset %d", what, r.off))
}

// remaining returns the number of unread bytes.
func (r *Reader) remaining() int { return len(r.b) - r.off }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || padded(r.b[r.off:r.off+n]) {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 || padded(r.b[r.off:r.off+n]) {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// padded reports a varint with a redundant trailing zero group.
func padded(enc []byte) bool { return len(enc) > 1 && enc[len(enc)-1] == 0 }

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail("byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a bool written by AppendBool.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.fail("bool")
		return false
	}
	return v == 1
}

// take returns the next n raw bytes, aliasing the input.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("length")
		return nil
	}
	s := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return s
}

// String reads a string written by AppendString.
func (r *Reader) String() string { return string(r.Bytes()) }

// Bytes reads a byte string written by AppendBytes. The result aliases
// the input.
func (r *Reader) Bytes() []byte { return r.take(r.Uvarint()) }

// OptBytesAlias reads a byte slice written by AppendOptBytes without
// copying: the result aliases the input.
func (r *Reader) OptBytesAlias() []byte {
	n := r.Uvarint()
	if n == 0 || r.err != nil {
		return nil
	}
	return r.take(n - 1)
}

// OptBytes reads a byte slice written by AppendOptBytes into fresh
// memory, so the input buffer can be released after decoding.
func (r *Reader) OptBytes() []byte {
	s := r.OptBytesAlias()
	if s == nil {
		return nil
	}
	return append(make([]byte, 0, len(s)), s...) // non-nil even when empty
}

// count reads a nil-aware element count, returning -1 for a nil
// collection. The count is bounded by the remaining input (every element
// costs at least one byte), so a corrupt count cannot pre-allocate an
// arbitrary slice.
func (r *Reader) count() int {
	n := r.Uvarint()
	if n == 0 || r.err != nil {
		return -1
	}
	if n-1 > uint64(r.remaining()) {
		r.fail("count")
		return -1
	}
	return int(n - 1)
}

// Strings reads a string list written by AppendStrings.
func (r *Reader) Strings() []string { return ReadSlice(r, (*Reader).String) }

// ByteMap reads a map written by AppendByteMap.
func (r *Reader) ByteMap() map[string][]byte {
	n := r.count()
	if n < 0 {
		return nil
	}
	out := make(map[string][]byte, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.OptBytes()
		if i > 0 && k <= prev {
			r.fail("map key order")
		}
		if r.err != nil {
			return nil
		}
		out[k] = v
		prev = k
	}
	return out
}

// Done finishes a decode: the sticky error, or trailing bytes after the
// last field, fails it.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.Fail(fmt.Errorf("%d trailing bytes", len(r.b)-r.off))
	}
	return r.err
}
