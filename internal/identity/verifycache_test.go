package identity

import (
	"sync"
	"testing"

	"repro/internal/fabcrypto"
	"repro/internal/metrics"
)

func cacheFixture(t *testing.T) (*CA, *Identity, *Verifier) {
	t.Helper()
	ca, err := NewCA("org1")
	if err != nil {
		t.Fatal(err)
	}
	id, err := ca.Issue("peer0.org1", RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier()
	v.TrustCA("org1", ca.PublicKey())
	return ca, id, v
}

// endorse signs msg as id and returns what VerifyEndorsement takes: the
// serialized certificate, the payload digest and the signature.
func endorse(t testing.TB, id *Identity, msg []byte) (certBytes, digest, sig []byte) {
	t.Helper()
	sig, err := id.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	return id.Cert.Bytes(), fabcrypto.Hash(msg), sig
}

func TestVerifyCacheHitsAndMisses(t *testing.T) {
	_, id, v := cacheFixture(t)
	counters := &metrics.Counters{}
	c := NewVerifyCache(v, 0, counters)
	msg := []byte("payload")
	certBytes, digest, sig := endorse(t, id, msg)

	if _, err := c.VerifyEndorsement(certBytes, digest, sig); err != nil {
		t.Fatal(err)
	}
	if got := counters.Get(metrics.VerifyCacheMisses); got != 1 {
		t.Fatalf("misses after first verify = %d, want 1", got)
	}
	// Identical endorsement: full hit, no crypto.
	if _, err := c.VerifyEndorsement(certBytes, digest, sig); err != nil {
		t.Fatal(err)
	}
	if got := counters.Get(metrics.VerifyCacheHits); got != 1 {
		t.Fatalf("hits after repeat verify = %d, want 1", got)
	}
	// Same endorser, different message: certificate-level hit.
	msg2 := []byte("other payload")
	_, digest2, sig2 := endorse(t, id, msg2)
	if _, err := c.VerifyEndorsement(certBytes, digest2, sig2); err != nil {
		t.Fatal(err)
	}
	if got := counters.Get(metrics.VerifyCacheHits); got != 2 {
		t.Fatalf("hits after new-message verify = %d, want 2", got)
	}
}

func TestVerifyCacheRejectsBadSignature(t *testing.T) {
	_, id, v := cacheFixture(t)
	c := NewVerifyCache(v, 0, nil)
	msg := []byte("payload")
	certBytes, digest, sig := endorse(t, id, msg)
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0xff
	if _, err := c.VerifyEndorsement(certBytes, digest, bad); err == nil {
		t.Fatal("corrupted signature verified")
	}
	// The failure must not poison the cache for the good signature, and
	// the good signature must not mask the bad one.
	if _, err := c.VerifyEndorsement(certBytes, digest, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VerifyEndorsement(certBytes, digest, bad); err == nil {
		t.Fatal("corrupted signature verified after a cached success")
	}
}

func TestVerifyCacheNegativeResultsNotCached(t *testing.T) {
	ca, err := NewCA("org9")
	if err != nil {
		t.Fatal(err)
	}
	id, err := ca.Issue("peer0.org9", RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier()
	c := NewVerifyCache(v, 0, nil)
	msg := []byte("payload")
	certBytes, digest, sig := endorse(t, id, msg)

	// org9's CA is unknown: verification fails.
	if _, err := c.VerifyEndorsement(certBytes, digest, sig); err == nil {
		t.Fatal("verified under unknown CA")
	}
	// Trusting the CA must take effect immediately — a cached negative
	// would wrongly keep failing.
	v.TrustCA("org9", ca.PublicKey())
	if _, err := c.VerifyEndorsement(certBytes, digest, sig); err != nil {
		t.Fatalf("after TrustCA: %v", err)
	}
}

func TestVerifyCacheGenerationInvalidation(t *testing.T) {
	_, id, v := cacheFixture(t)
	c := NewVerifyCache(v, 0, nil)
	msg := []byte("payload")
	certBytes, digest, sig := endorse(t, id, msg)
	if _, err := c.VerifyEndorsement(certBytes, digest, sig); err != nil {
		t.Fatal(err)
	}
	// Rotate org1's CA: the old certificate chain is no longer valid,
	// and the cached success must not survive the rotation.
	ca2, err := NewCA("org1")
	if err != nil {
		t.Fatal(err)
	}
	v.TrustCA("org1", ca2.PublicKey())
	if _, err := c.VerifyEndorsement(certBytes, digest, sig); err == nil {
		t.Fatal("stale cache entry survived CA rotation")
	}
}

func TestVerifyCacheEviction(t *testing.T) {
	_, id, v := cacheFixture(t)
	c := NewVerifyCache(v, 3, nil)
	for i := 0; i < 10; i++ {
		msg := []byte{byte(i)}
		certBytes, digest, sig := endorse(t, id, msg)
		if _, err := c.VerifyEndorsement(certBytes, digest, sig); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > 3 {
		t.Fatalf("cache size %d exceeds capacity 3", n)
	}
}

func TestVerifyCacheDisabled(t *testing.T) {
	_, id, v := cacheFixture(t)
	counters := &metrics.Counters{}
	c := NewVerifyCache(v, -1, counters)
	msg := []byte("payload")
	certBytes, digest, sig := endorse(t, id, msg)
	for i := 0; i < 3; i++ {
		if _, err := c.VerifyEndorsement(certBytes, digest, sig); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("disabled cache stored %d entries", n)
	}
	if hits := counters.Get(metrics.VerifyCacheHits); hits != 0 {
		t.Fatalf("disabled cache reported %d hits", hits)
	}
}

func TestVerifyCacheConcurrent(t *testing.T) {
	_, id, v := cacheFixture(t)
	c := NewVerifyCache(v, 8, &metrics.Counters{})
	digests := make([][]byte, 4)
	certs := make([][]byte, 4)
	sigs := make([][]byte, 4)
	for i := range digests {
		certs[i], digests[i], sigs[i] = endorse(t, id, []byte{byte(i)})
	}
	// Workers check endorsements (the validator), check the bare
	// certificate (the endorser's creator check) or sign (the endorser's
	// response): a peer's one cache serves all three at once.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w + i) % len(digests)
				var cert *Certificate
				var err error
				switch w % 3 {
				case 0:
					cert, err = c.VerifyEndorsement(certs[k], digests[k], sigs[k])
				case 1:
					cert, err = c.ParseAndValidate(certs[k])
				default:
					var sig []byte
					if sig, err = c.SignEndorsement(id, []byte{byte(w), byte(i)}); err == nil {
						cert, err = c.VerifyEndorsement(certs[k], fabcrypto.Hash([]byte{byte(w), byte(i)}), sig)
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				if cert.Org != "org1" {
					t.Errorf("cached certificate names org %q", cert.Org)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSignEndorsementRecordsOnlyWhatItSigned: the signing entry point
// stores the peer's own endorsement as verified, so verifying it is one
// entry-level hit; recording counts as neither hit nor miss, and nothing
// is recorded that a full verification would reject.
func TestSignEndorsementRecordsOnlyWhatItSigned(t *testing.T) {
	payload := []byte("payload")
	digest := fabcrypto.Hash(payload)

	t.Run("own endorsement hits", func(t *testing.T) {
		_, id, v := cacheFixture(t)
		counters := &metrics.Counters{}
		c := NewVerifyCache(v, 0, counters)
		sig, err := c.SignEndorsement(id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses := counters.Get(metrics.VerifyCacheHits), counters.Get(metrics.VerifyCacheMisses); hits+misses != 0 {
			t.Fatalf("signing counted %d hits and %d misses, want none", hits, misses)
		}
		entries := c.Len()
		if _, err := c.VerifyEndorsement(id.Cert.Bytes(), digest, sig); err != nil {
			t.Fatal(err)
		}
		if got := counters.Get(metrics.VerifyCacheHits); got != 1 {
			t.Fatalf("hits = %d, want 1", got)
		}
		if got := counters.Get(metrics.VerifyCacheMisses); got != 0 {
			t.Fatalf("misses = %d, want 0", got)
		}
		if c.Len() != entries {
			t.Fatal("verifying the own endorsement stored a new entry: it was not recorded")
		}
		if err := fabcrypto.Verify(id.Cert.PubKey, payload, sig); err != nil {
			t.Fatalf("returned signature does not verify: %v", err)
		}
	})

	t.Run("signature only counts for what was signed", func(t *testing.T) {
		_, id, v := cacheFixture(t)
		c := NewVerifyCache(v, 0, nil)
		sig, err := c.SignEndorsement(id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.VerifyEndorsement(id.Cert.Bytes(), fabcrypto.Hash([]byte("other")), sig); err == nil {
			t.Fatal("own signature verified over another payload")
		}
		bad := append([]byte(nil), sig...)
		bad[len(bad)-1] ^= 0x01
		if _, err := c.VerifyEndorsement(id.Cert.Bytes(), digest, bad); err == nil {
			t.Fatal("flipped own signature verified")
		}
	})

	t.Run("key not named by the certificate", func(t *testing.T) {
		ca, id, v := cacheFixture(t)
		other, err := ca.Issue("peer1.org1", RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		// A valid certificate paired with somebody else's key: the
		// signature is real but no verifier would accept it for the cert.
		mismatched := &Identity{Cert: other.Cert, key: id.key}
		c := NewVerifyCache(v, 0, nil)
		sig, err := c.SignEndorsement(mismatched, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.VerifyEndorsement(other.Cert.Bytes(), digest, sig); err == nil {
			t.Fatal("endorsement signed with a key its certificate does not name was recorded")
		}
	})

	t.Run("untrusted CA", func(t *testing.T) {
		ca, err := NewCA("org9")
		if err != nil {
			t.Fatal(err)
		}
		id, err := ca.Issue("peer0.org9", RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		c := NewVerifyCache(NewVerifier(), 0, nil)
		sig, err := c.SignEndorsement(id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != 0 {
			t.Fatalf("recorded %d entries for a certificate no CA vouches for", c.Len())
		}
		if _, err := c.VerifyEndorsement(id.Cert.Bytes(), digest, sig); err == nil {
			t.Fatal("endorsement under an untrusted CA verified")
		}
	})

	t.Run("CA rotation after signing", func(t *testing.T) {
		ca, id, v := cacheFixture(t)
		counters := &metrics.Counters{}
		c := NewVerifyCache(v, 0, counters)
		sig, err := c.SignEndorsement(id, payload)
		if err != nil {
			t.Fatal(err)
		}
		v.TrustCA("org1", ca.PublicKey()) // same CA, new generation
		if _, err := c.VerifyEndorsement(id.Cert.Bytes(), digest, sig); err != nil {
			t.Fatal(err)
		}
		if got := counters.Get(metrics.VerifyCacheMisses); got != 1 {
			t.Fatalf("misses = %d after TrustCA, want 1 (the full check)", got)
		}
	})

	t.Run("disabled cache", func(t *testing.T) {
		_, id, v := cacheFixture(t)
		counters := &metrics.Counters{}
		c := NewVerifyCache(v, -1, counters)
		sig, err := c.SignEndorsement(id, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.VerifyEndorsement(id.Cert.Bytes(), digest, sig); err != nil {
			t.Fatal(err)
		}
		if c.Len() != 0 || counters.Get(metrics.VerifyCacheHits) != 0 {
			t.Fatalf("disabled cache: %d entries, %d hits", c.Len(), counters.Get(metrics.VerifyCacheHits))
		}
	})
}
