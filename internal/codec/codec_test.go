package codec

import (
	"errors"
	"testing"
)

func TestDecoderRoundTripAndRejects(t *testing.T) {
	body := AppendString([]byte{0x07}, "ns")
	body = AppendBytes(body, []byte("value"))
	d := NewReader(body)
	if b, s, v := d.Byte(), d.String(), string(d.Bytes()); b != 0x07 || s != "ns" || v != "value" {
		t.Fatalf("decoded %d %q %q", b, s, v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"trailing byte":  append(append([]byte(nil), body...), 0),
		"field overruns": body[:len(body)-1],
	} {
		d := NewReader(bad)
		_, _, _ = d.Byte(), d.String(), d.Bytes()
		if err := d.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Done = %v, want ErrMalformed", name, err)
		}
	}
}

// TestOptionalFieldsKeepNil: the nil-aware forms round-trip nil and
// empty as themselves, and a pointer's presence marker round-trips nil.
func TestOptionalFieldsKeepNil(t *testing.T) {
	type pair struct{ A, B []byte }
	enc := func(b []byte, p *pair) []byte { return AppendOptBytes(AppendOptBytes(b, p.A), p.B) }
	dec := func(r *Reader) *pair { return &pair{A: r.OptBytes(), B: r.OptBytes()} }

	b := AppendOpt(nil, &pair{A: nil, B: []byte{}}, enc)
	b = AppendOpt(b, (*pair)(nil), enc)
	b = AppendStrings(b, []string{})
	b = AppendStrings(b, nil)
	b = AppendByteMap(b, map[string][]byte{"a": nil, "b": {}})
	r := NewReader(b)
	p := ReadOpt(&r, dec)
	absent := ReadOpt(&r, dec)
	empty, none := r.Strings(), r.Strings()
	m := r.ByteMap()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if p == nil || p.A != nil || p.B == nil || len(p.B) != 0 {
		t.Fatalf("present pair decoded as %#v", p)
	}
	if absent != nil || empty == nil || none != nil {
		t.Fatalf("absent=%v empty=%#v none=%#v", absent, empty, none)
	}
	if v, ok := m["a"]; !ok || v != nil {
		t.Fatalf("map nil value decoded as %#v", v)
	}
	if v := m["b"]; v == nil || len(v) != 0 {
		t.Fatalf("map empty value decoded as %#v", v)
	}
}

// TestReaderIsCanonical: encodings the Append functions cannot produce
// are rejected, not normalized.
func TestReaderIsCanonical(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"padded uvarint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"padded varint", []byte{0x80, 0x00}, func(r *Reader) { r.Varint() }},
		{"bool above 1", []byte{2}, func(r *Reader) { r.Bool() }},
		{"unsorted map", []byte{3, 1, 'b', 0, 1, 'a', 0}, func(r *Reader) { r.ByteMap() }},
		{"repeated map key", []byte{3, 1, 'a', 0, 1, 'a', 0}, func(r *Reader) { r.ByteMap() }},
		{"count beyond input", []byte{9, 0}, func(r *Reader) { r.Strings() }},
		{"trailing byte", []byte{1, 0}, func(r *Reader) { r.Bool() }},
	}
	for _, c := range cases {
		r := NewReader(c.data)
		c.read(&r)
		if err := r.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", c.name, err)
		}
	}
}
