package identity

import (
	"bytes"
	"container/list"
	"fmt"
	"sync"

	"repro/internal/fabcrypto"
	"repro/internal/metrics"
)

// DefaultVerifyCacheSize is the LRU capacity used when a VerifyCache is
// created with capacity 0.
const DefaultVerifyCacheSize = 4096

// VerifyCache memoizes successful certificate and endorsement
// verifications over a Verifier. Each peer holds one, shared by its
// endorser (the proposal creator's certificate) and its validator (every
// endorser's certificate and signature). Both re-verify the same few
// certificates over and over; each verification costs up to two ECDSA
// operations — the CA signature over the certificate and the endorser
// signature over the payload. The cache short-circuits both.
//
// Two kinds of entry share one LRU:
//
//   - certificates: serialized certificate bytes -> parsed certificate
//     whose CA signature verified. Repeat clients and endorsers are the
//     common case, so this hits on nearly every proposal and transaction.
//   - endorsements: H(certificate ‖ payload digest ‖ signature) ->
//     verified. SignEndorsement stores the peer's own endorsements as it
//     signs them, so the validator never verifies a signature its own
//     peer made. Anyone else's endorsement hits only when the identical
//     transaction is re-validated (re-delivered blocks, replays).
//
// A returned *Certificate is the cached value itself, shared with every
// later hit: callers never mutate it (Certificate.Clone gives a private
// copy).
//
// Invalidation rules (see docs/VALIDATION.md):
//
//   - Only entries the cache verified, or signed itself, are stored; no
//     exported method takes a verdict from its caller.
//   - Only SUCCESSFUL verifications are cached. A signature that fails
//     because the org's CA is not yet trusted must be re-checked after a
//     later TrustCA, so negative results are never stored.
//   - Every entry records the Verifier generation it was verified under;
//     TrustCA bumps the generation, so CA rotation turns all earlier
//     entries into misses (they are evicted lazily).
//   - Capacity is bounded; least-recently-used entries are evicted.
//
// The zero value is not usable; construct with NewVerifyCache. All
// methods are safe for concurrent use by validation workers.
type VerifyCache struct {
	verifier *Verifier
	counters *metrics.Counters // optional hit/miss counters

	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	gen  uint64
	cert *Certificate // nil for endorsement entries
}

// NewVerifyCache wraps a Verifier with an LRU verification cache.
// capacity 0 selects DefaultVerifyCacheSize; a negative capacity
// disables caching entirely (every call verifies in full). counters, when
// non-nil, receives one VerifyCacheHits or VerifyCacheMisses per lookup
// (ParseAndValidate, VerifyEndorsement); SignEndorsement counts nothing.
func NewVerifyCache(v *Verifier, capacity int, counters *metrics.Counters) *VerifyCache {
	if capacity == 0 {
		capacity = DefaultVerifyCacheSize
	}
	return &VerifyCache{
		verifier: v,
		counters: counters,
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Verifier returns the wrapped Verifier.
func (c *VerifyCache) Verifier() *Verifier { return c.verifier }

// Len returns the number of live cache entries.
func (c *VerifyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Flush drops every cache entry.
func (c *VerifyCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
}

// lookup returns the entry for key when present and current. Stale
// (old-generation) entries are removed.
func (c *VerifyCache) lookup(key string, gen uint64) (*cacheEntry, bool) {
	if c.cap < 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		c.ll.Remove(el)
		delete(c.items, key)
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e, true
}

// store inserts a verified entry, evicting the LRU tail past capacity.
func (c *VerifyCache) store(key string, e *cacheEntry) {
	if c.cap < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
	}
}

// count records one lookup's outcome.
func (c *VerifyCache) count(hit bool) {
	if c.counters == nil {
		return
	}
	if hit {
		c.counters.Inc(metrics.VerifyCacheHits)
	} else {
		c.counters.Inc(metrics.VerifyCacheMisses)
	}
}

func certKey(certBytes []byte) string {
	return "c/" + string(fabcrypto.Hash(certBytes))
}

func endorsementKey(certBytes, digest, sig []byte) string {
	return "e/" + string(fabcrypto.HashConcat(certBytes, digest, sig))
}

// ParseAndValidate parses a serialized certificate and checks its CA
// signature, serving repeat certificates from the cache.
func (c *VerifyCache) ParseAndValidate(certBytes []byte) (*Certificate, error) {
	cert, hit, err := c.certificate(certBytes, c.verifier.Generation())
	c.count(hit)
	return cert, err
}

// certificate is ParseAndValidate under a generation the caller read
// before the check, without touching the counters. hit reports whether
// the certificate came from the cache.
func (c *VerifyCache) certificate(certBytes []byte, gen uint64) (cert *Certificate, hit bool, err error) {
	key := certKey(certBytes)
	if e, ok := c.lookup(key, gen); ok {
		return e.cert, true, nil
	}
	cert, err = ParseCertificate(certBytes)
	if err != nil {
		return nil, false, err
	}
	if err := c.verifier.ValidateCertificate(cert); err != nil {
		return nil, false, err
	}
	c.store(key, &cacheEntry{key: key, gen: gen, cert: cert})
	return cert, false, nil
}

// VerifyEndorsement checks that sig over the payload whose SHA-256 digest
// is digest was produced by the subject of the serialized certificate,
// and that the certificate is valid under a trusted CA — the cached
// equivalent of ParseCertificate + Verifier.VerifySignature. The caller
// hashes the payload once and passes the digest to every endorsement
// over it. On a full hit no ECDSA operation runs.
func (c *VerifyCache) VerifyEndorsement(certBytes, digest, sig []byte) (*Certificate, error) {
	gen := c.verifier.Generation()
	eKey := endorsementKey(certBytes, digest, sig)
	if e, ok := c.lookup(eKey, gen); ok {
		c.count(true)
		return e.cert, nil
	}
	cert, hit, err := c.certificate(certBytes, gen)
	c.count(hit)
	if err != nil {
		return nil, err
	}
	if err := fabcrypto.VerifyDigest(cert.PubKey, digest, sig); err != nil {
		return nil, fmt.Errorf("identity: signature by %q: %w", cert.Subject, err)
	}
	c.store(eKey, &cacheEntry{key: eKey, gen: gen, cert: cert})
	return cert, nil
}

// SignEndorsement signs payload as id and records the endorsement as
// verified: the entry VerifyEndorsement would store after checking the
// same certificate, digest and signature. When the peer later validates
// its own endorsement, the lookup hits and no ECDSA verification runs;
// every other endorsement is verified in full.
//
// The signature is returned whether or not it is recorded. It is
// recorded only when the cache is enabled, id's private key is the key
// its certificate names, and the certificate passes the CA check under
// the generation read before that check. Recording is not a lookup and
// counts as neither hit nor miss.
func (c *VerifyCache) SignEndorsement(id *Identity, payload []byte) ([]byte, error) {
	digest := fabcrypto.Hash(payload)
	sig, err := id.signDigest(digest)
	if err != nil {
		return nil, err
	}
	if c.cap < 0 {
		return sig, nil
	}
	gen := c.verifier.Generation()
	certBytes := id.Cert.Bytes()
	cert, _, err := c.certificate(certBytes, gen)
	if err != nil || !bytes.Equal(cert.PubKey, id.key.PublicKey()) {
		return sig, nil
	}
	eKey := endorsementKey(certBytes, digest, sig)
	c.store(eKey, &cacheEntry{key: eKey, gen: gen, cert: cert})
	return sig, nil
}
