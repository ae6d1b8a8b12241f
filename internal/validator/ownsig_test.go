package validator

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fabcrypto"
	"repro/internal/ledger"
	"repro/internal/metrics"
)

// TestOwnEndorsementSoundness: a peer's validator skips the signature
// check only for endorsements its own cache signed, and only for the
// exact (certificate, payload, signature) it signed. Each row builds one
// transaction carrying a foreign endorsement (org1, verified beforehand
// so it is an entry-level hit) followed by the validating peer's own
// (org2), and validates it on a fresh peer0.org2 with the cache on and
// with VerifyCacheSize -1.
//
// The "moved" row fails if the endorsement entry key drops the payload
// digest, and the "flipped" row fails if it drops the signature.
func TestOwnEndorsementSoundness(t *testing.T) {
	f := newPipelineFixture(t)
	own := f.peers["org2"]
	var org2CA fabcrypto.PublicKey
	for _, o := range f.cfg.Orgs {
		if o.Name == "org2" {
			org2CA = o.CAPub
		}
	}

	// ownSigned endorses txID by org1 and then by the peer itself,
	// signing through the peer's cache as its endorser does.
	ownSigned := func(t *testing.T, p *pipelinePeer, txID string) *ledger.Transaction {
		tx := f.tx(t, txID, writeSet(t, txID, "k"+txID), "org1")
		sig, err := p.certs.SignEndorsement(own, tx.ResponsePayload)
		if err != nil {
			t.Fatal(err)
		}
		tx.Endorsements = append(tx.Endorsements, ledger.Endorsement{Endorser: own.Cert.Bytes(), Signature: sig})
		return tx
	}
	rows := []struct {
		name  string
		build func(t *testing.T, p *pipelinePeer) *ledger.Transaction
		want  ledger.ValidationCode
		// misses is verify_cache_misses during validation with the
		// cache on; with it off every endorsement is one miss.
		misses uint64
	}{
		{"own endorsement", func(t *testing.T, p *pipelinePeer) *ledger.Transaction {
			return ownSigned(t, p, "own")
		}, ledger.Valid, 0},
		{"own certificate and signature moved onto another payload", func(t *testing.T, p *pipelinePeer) *ledger.Transaction {
			signed := ownSigned(t, p, "signed")
			tx := f.tx(t, "moved", writeSet(t, "moved", "kmoved"), "org1")
			tx.Endorsements = append(tx.Endorsements, signed.Endorsements[1])
			return tx
		}, ledger.BadSignature, 0},
		{"own certificate with one signature byte flipped", func(t *testing.T, p *pipelinePeer) *ledger.Transaction {
			tx := ownSigned(t, p, "flipped")
			sig := append([]byte(nil), tx.Endorsements[1].Signature...)
			sig[len(sig)-1] ^= 0x01
			tx.Endorsements[1].Signature = sig
			return tx
		}, ledger.BadSignature, 0},
		{"TrustCA between endorse and validate", func(t *testing.T, p *pipelinePeer) *ledger.Transaction {
			tx := ownSigned(t, p, "rotated")
			p.certs.Verifier().TrustCA("org2", org2CA) // same key, new generation
			return tx
		}, ledger.Valid, 1}, // the own certificate is checked again in full
	}
	for _, cache := range []struct {
		name string
		size int
	}{{"cache on", 0}, {"VerifyCacheSize -1", -1}} {
		for _, r := range rows {
			t.Run(cache.name+"/"+r.name, func(t *testing.T) {
				sec := core.OriginalFabric()
				sec.VerifyCacheSize = cache.size
				p := f.newPeerWith(sec)
				tx := r.build(t, p)
				foreign := tx.Endorsements[0]
				if _, err := p.certs.VerifyEndorsement(foreign.Endorser, fabcrypto.Hash(tx.ResponsePayload), foreign.Signature); err != nil {
					t.Fatal(err)
				}
				hits, misses, entries := p.counters.Get(metrics.VerifyCacheHits), p.counters.Get(metrics.VerifyCacheMisses), p.certs.Len()

				if got := p.v.ValidateBlock(ledger.NewBlock(0, nil, []*ledger.Transaction{tx}))[0]; got != r.want {
					t.Fatalf("code = %v, want %v", got, r.want)
				}
				gotHits := p.counters.Get(metrics.VerifyCacheHits) - hits
				gotMisses := p.counters.Get(metrics.VerifyCacheMisses) - misses
				if cache.size < 0 {
					if gotHits != 0 || gotMisses != uint64(len(tx.Endorsements)) {
						t.Fatalf("disabled cache: %d hits, %d misses; want 0 and %d (full verification)", gotHits, gotMisses, len(tx.Endorsements))
					}
					return
				}
				if gotMisses != r.misses {
					t.Fatalf("verify_cache_misses = %d, want %d", gotMisses, r.misses)
				}
				// A hit stores nothing, a failure stores nothing, and a
				// re-verification replaces the stale entries it removed:
				// a new entry means a recorded endorsement was verified.
				if got := p.certs.Len(); got != entries {
					t.Fatalf("cache entries %d -> %d across validation", entries, got)
				}
			})
		}
	}
}
