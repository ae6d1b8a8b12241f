package fabcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
)

// ErrInvalidSignature is returned by Verify when a signature does not match
// the message under the given public key.
var ErrInvalidSignature = errors.New("fabcrypto: invalid signature")

// KeyPair is an ECDSA P-256 key pair used for identities, endorsement
// signatures and CA signatures.
type KeyPair struct {
	priv *ecdsa.PrivateKey
}

// GenerateKeyPair creates a fresh P-256 key pair.
func GenerateKeyPair() (*KeyPair, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate ecdsa key: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// MustGenerateKeyPair is GenerateKeyPair for initialization paths where key
// generation failure is unrecoverable (it only fails if the system entropy
// source is broken).
func MustGenerateKeyPair() *KeyPair {
	kp, err := GenerateKeyPair()
	if err != nil {
		panic(err)
	}
	return kp
}

// PublicKey returns the serialized (uncompressed-point) public key.
func (k *KeyPair) PublicKey() PublicKey {
	pub := k.priv.PublicKey
	return PublicKey(elliptic.Marshal(elliptic.P256(), pub.X, pub.Y))
}

// Sign signs the SHA-256 digest of msg and returns an ASN.1 DER signature.
func (k *KeyPair) Sign(msg []byte) ([]byte, error) { return k.SignDigest(Hash(msg)) }

// SignDigest signs a SHA-256 digest the caller already computed, for
// callers that need the digest themselves and hash each payload once.
func (k *KeyPair) SignDigest(digest []byte) ([]byte, error) {
	sig, err := ecdsa.SignASN1(rand.Reader, k.priv, digest)
	if err != nil {
		return nil, fmt.Errorf("ecdsa sign: %w", err)
	}
	return sig, nil
}

// PublicKey is a serialized ECDSA P-256 public key (uncompressed point).
type PublicKey []byte

// Verify checks sig over the SHA-256 digest of msg under pub.
func Verify(pub PublicKey, msg, sig []byte) error { return VerifyDigest(pub, Hash(msg), sig) }

// VerifyDigest checks sig over a SHA-256 digest under pub; Verify is
// VerifyDigest over Hash(msg).
func VerifyDigest(pub PublicKey, digest, sig []byte) error {
	x, y := elliptic.Unmarshal(elliptic.P256(), pub)
	if x == nil {
		return errors.New("fabcrypto: malformed public key")
	}
	pk := ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
	if !ecdsa.VerifyASN1(&pk, digest, sig) {
		return ErrInvalidSignature
	}
	return nil
}

// String returns a short hex fingerprint of the public key, convenient for
// logs and error messages.
func (p PublicKey) String() string {
	if len(p) == 0 {
		return "<nil-key>"
	}
	return HashHex(p)[:12]
}

// Fingerprint returns the full SHA-256 hex fingerprint of the key.
func (p PublicKey) Fingerprint() string {
	return HashHex(p)
}
