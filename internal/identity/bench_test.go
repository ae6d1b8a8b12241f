package identity

import (
	"encoding/binary"
	"testing"

	"repro/internal/fabcrypto"
)

// BenchmarkVerifyEndorsement measures the validator's per-endorsement
// path — hash the payload, then VerifyEndorsement — on a warm cache
// that has already checked the endorser's certificate, so each
// iteration sees a transaction it has not verified before:
//
//   - foreign: another peer's endorsement of a 512 B payload; one ECDSA
//     verification per iteration.
//   - own: an endorsement this cache signed with SignEndorsement; an
//     entry-level hit, no ECDSA.
//   - 16KiB: foreign, over a 16 KiB payload (the per-byte share: one
//     digest of the payload plus the entry key).
func BenchmarkVerifyEndorsement(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
		own  bool
	}{
		{"foreign", 512, false},
		{"own", 512, true},
		{"16KiB", 16 << 10, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ca, err := NewCA("org1")
			if err != nil {
				b.Fatal(err)
			}
			id, err := ca.Issue("peer0.org1", RolePeer)
			if err != nil {
				b.Fatal(err)
			}
			v := NewVerifier()
			v.TrustCA("org1", ca.PublicKey())
			// Room for every iteration's entry: eviction would turn own
			// hits into misses.
			c := NewVerifyCache(v, b.N+16, nil)
			certBytes := id.Cert.Bytes()
			if _, err := c.ParseAndValidate(certBytes); err != nil {
				b.Fatal(err)
			}
			// Payload i is the shared buffer stamped with i, so the
			// timed loop can rebuild it without holding b.N copies.
			payload := make([]byte, bc.size)
			sigs := make([][]byte, b.N)
			for i := range sigs {
				binary.BigEndian.PutUint64(payload, uint64(i))
				if bc.own {
					sigs[i], err = c.SignEndorsement(id, payload)
				} else {
					sigs[i], err = id.Sign(payload)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(bc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(payload, uint64(i))
				if _, err := c.VerifyEndorsement(certBytes, fabcrypto.Hash(payload), sigs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
