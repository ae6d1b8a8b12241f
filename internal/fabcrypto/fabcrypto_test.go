package fabcrypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("hello"))
	b := Hash([]byte("hello"))
	if !bytes.Equal(a, b) {
		t.Fatal("hash not deterministic")
	}
	if len(a) != HashSize {
		t.Fatalf("digest size = %d, want %d", len(a), HashSize)
	}
	if bytes.Equal(a, Hash([]byte("hellO"))) {
		t.Fatal("distinct inputs collided")
	}
	if !bytes.Equal(HashString("hello"), a) {
		t.Fatal("HashString differs from Hash")
	}
	if len(HashHex([]byte("x"))) != 2*HashSize {
		t.Fatal("HashHex length wrong")
	}
}

// TestHashConcatFraming checks the length-prefix framing: moving a byte
// across a part boundary must change the digest.
func TestHashConcatFraming(t *testing.T) {
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	if bytes.Equal(a, b) {
		t.Fatal("HashConcat framing ambiguity: (ab,c) == (a,bc)")
	}
	c := HashConcat([]byte("abc"))
	if bytes.Equal(a, c) || bytes.Equal(b, c) {
		t.Fatal("HashConcat framing ambiguity with single part")
	}
}

func TestHashConcatQuick(t *testing.T) {
	// Property: concatenation order matters and the function is
	// deterministic.
	f := func(a, b []byte) bool {
		h1 := HashConcat(a, b)
		h2 := HashConcat(a, b)
		if !bytes.Equal(h1, h2) {
			return false
		}
		if bytes.Equal(a, b) {
			return true
		}
		return !bytes.Equal(HashConcat(a, b), HashConcat(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	if !Equal([]byte{1, 2}, []byte{1, 2}) {
		t.Error("equal slices reported unequal")
	}
	if Equal([]byte{1, 2}, []byte{1, 3}) {
		t.Error("unequal slices reported equal")
	}
	if Equal([]byte{1}, []byte{1, 2}) {
		t.Error("different lengths reported equal")
	}
	if !Equal(nil, nil) {
		t.Error("nil digests should be equal")
	}
}

func TestSignVerify(t *testing.T) {
	kp, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("endorse me")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(kp.PublicKey(), msg, sig); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := Verify(kp.PublicKey(), []byte("tampered"), sig); err == nil {
		t.Fatal("tampered message verified")
	}

	// Tampered signature.
	sig2 := append([]byte(nil), sig...)
	sig2[len(sig2)/2] ^= 0xff
	if err := Verify(kp.PublicKey(), msg, sig2); err == nil {
		t.Fatal("tampered signature verified")
	}

	// Wrong key.
	other := MustGenerateKeyPair()
	if err := Verify(other.PublicKey(), msg, sig); err == nil {
		t.Fatal("signature verified under wrong key")
	}

	// Malformed key.
	if err := Verify(PublicKey([]byte{1, 2, 3}), msg, sig); err == nil {
		t.Fatal("malformed key accepted")
	}
}

// TestDigestFormsInteroperate pins Sign/Verify as wrappers over the digest
// forms: a signature made either way verifies either way, and only over
// the digest of the message it signed.
func TestDigestFormsInteroperate(t *testing.T) {
	kp := MustGenerateKeyPair()
	msg := []byte("endorse me")
	viaMsg, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	viaDigest, err := kp.SignDigest(Hash(msg))
	if err != nil {
		t.Fatal(err)
	}
	for name, sig := range map[string][]byte{"Sign": viaMsg, "SignDigest": viaDigest} {
		if err := Verify(kp.PublicKey(), msg, sig); err != nil {
			t.Errorf("%s signature fails Verify: %v", name, err)
		}
		if err := VerifyDigest(kp.PublicKey(), Hash(msg), sig); err != nil {
			t.Errorf("%s signature fails VerifyDigest: %v", name, err)
		}
		if err := VerifyDigest(kp.PublicKey(), Hash([]byte("tampered")), sig); err == nil {
			t.Errorf("%s signature verified over another digest", name)
		}
		if err := VerifyDigest(kp.PublicKey(), msg, sig); err == nil {
			t.Errorf("%s signature verified with the raw message as digest", name)
		}
	}
}

func TestPublicKeyString(t *testing.T) {
	kp := MustGenerateKeyPair()
	if s := kp.PublicKey().String(); len(s) != 12 {
		t.Errorf("fingerprint %q length %d, want 12", s, len(s))
	}
	if s := PublicKey(nil).String(); s != "<nil-key>" {
		t.Errorf("nil key string = %q", s)
	}
	if len(kp.PublicKey().Fingerprint()) != 64 {
		t.Error("full fingerprint should be 64 hex chars")
	}
}
