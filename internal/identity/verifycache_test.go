package identity

import (
	"sync"
	"testing"

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

func endorse(t *testing.T, id *Identity, msg []byte) (certBytes, sig []byte) {
	t.Helper()
	sig, err := id.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	return id.Cert.Bytes(), sig
}

func TestVerifyCacheHitsAndMisses(t *testing.T) {
	_, id, v := cacheFixture(t)
	counters := &metrics.Counters{}
	c := NewVerifyCache(v, 0, counters)
	msg := []byte("payload")
	certBytes, sig := endorse(t, id, msg)

	if _, err := c.VerifyEndorsement(certBytes, msg, sig); err != nil {
		t.Fatal(err)
	}
	if got := counters.Get(metrics.VerifyCacheMisses); got != 1 {
		t.Fatalf("misses after first verify = %d, want 1", got)
	}
	// Identical endorsement: full hit, no crypto.
	if _, err := c.VerifyEndorsement(certBytes, msg, sig); err != nil {
		t.Fatal(err)
	}
	if got := counters.Get(metrics.VerifyCacheHits); got != 1 {
		t.Fatalf("hits after repeat verify = %d, want 1", got)
	}
	// Same endorser, different message: certificate-level hit.
	msg2 := []byte("other payload")
	_, sig2 := endorse(t, id, msg2)
	if _, err := c.VerifyEndorsement(certBytes, msg2, sig2); err != nil {
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
	certBytes, sig := endorse(t, id, msg)
	bad := append([]byte(nil), sig...)
	bad[0] ^= 0xff
	if _, err := c.VerifyEndorsement(certBytes, msg, bad); err == nil {
		t.Fatal("corrupted signature verified")
	}
	// The failure must not poison the cache for the good signature, and
	// the good signature must not mask the bad one.
	if _, err := c.VerifyEndorsement(certBytes, msg, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VerifyEndorsement(certBytes, msg, bad); err == nil {
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
	certBytes, sig := endorse(t, id, msg)

	// org9's CA is unknown: verification fails.
	if _, err := c.VerifyEndorsement(certBytes, msg, sig); err == nil {
		t.Fatal("verified under unknown CA")
	}
	// Trusting the CA must take effect immediately — a cached negative
	// would wrongly keep failing.
	v.TrustCA("org9", ca.PublicKey())
	if _, err := c.VerifyEndorsement(certBytes, msg, sig); err != nil {
		t.Fatalf("after TrustCA: %v", err)
	}
}

func TestVerifyCacheGenerationInvalidation(t *testing.T) {
	_, id, v := cacheFixture(t)
	c := NewVerifyCache(v, 0, nil)
	msg := []byte("payload")
	certBytes, sig := endorse(t, id, msg)
	if _, err := c.VerifyEndorsement(certBytes, msg, sig); err != nil {
		t.Fatal(err)
	}
	// Rotate org1's CA: the old certificate chain is no longer valid,
	// and the cached success must not survive the rotation.
	ca2, err := NewCA("org1")
	if err != nil {
		t.Fatal(err)
	}
	v.TrustCA("org1", ca2.PublicKey())
	if _, err := c.VerifyEndorsement(certBytes, msg, sig); err == nil {
		t.Fatal("stale cache entry survived CA rotation")
	}
}

func TestVerifyCacheEviction(t *testing.T) {
	_, id, v := cacheFixture(t)
	c := NewVerifyCache(v, 3, nil)
	for i := 0; i < 10; i++ {
		msg := []byte{byte(i)}
		certBytes, sig := endorse(t, id, msg)
		if _, err := c.VerifyEndorsement(certBytes, msg, sig); err != nil {
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
	certBytes, sig := endorse(t, id, msg)
	for i := 0; i < 3; i++ {
		if _, err := c.VerifyEndorsement(certBytes, msg, sig); err != nil {
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
	msgs := make([][]byte, 4)
	certs := make([][]byte, 4)
	sigs := make([][]byte, 4)
	for i := range msgs {
		msgs[i] = []byte{byte(i)}
		certs[i], sigs[i] = endorse(t, id, msgs[i])
	}
	// Even workers check endorsements (the validator), odd ones check the
	// bare certificate (the endorser's creator check): a peer's one cache
	// serves both at once.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w + i) % len(msgs)
				var cert *Certificate
				var err error
				if w%2 == 0 {
					cert, err = c.VerifyEndorsement(certs[k], msgs[k], sigs[k])
				} else {
					cert, err = c.ParseAndValidate(certs[k])
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
