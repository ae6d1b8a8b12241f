package validator

import (
	"sync"
	"sync/atomic"
)

// The sharded duplicate-TxID cache that fronts block validation: a
// bounded, striped set of recently committed transaction IDs that lets
// the validator reject replayed submissions before the expensive
// endorsement-signature verification, without a global lock.
//
// Design (after teranode's txmetacache improved-cache): the capacity is
// rounded up to a power of two and split across a power-of-two number of
// striped buckets, so the shard index is a mask over the key hash and
// two lookups for different transactions almost never contend. Each
// shard is an open map fronted by a FIFO ring of the same capacity: at
// capacity the oldest resident ID is evicted, which is safe here because
// the cache is an accelerator, not the authority — a miss falls through
// to the peer's block-store index, so eviction can cause a slow check
// but never a wrong verdict.

// defaultDedupCapacity is the cache capacity when the configuration does
// not set one: 64Ki transaction IDs (~4 MiB of IDs at 64-byte TxIDs).
const defaultDedupCapacity = 1 << 16

// dedupShards is the stripe count (power of two). 64 stripes keep
// contention negligible at validation-worker counts far beyond any
// machine this runs on.
const dedupShards = 64

// DedupStats is a consistent snapshot of the cache's counters.
type DedupStats struct {
	// Hits counts lookups that found the ID resident (duplicates caught
	// before signature verification).
	Hits uint64
	// Misses counts lookups that fell through to the authoritative
	// block-store check.
	Misses uint64
	// Evictions counts resident IDs displaced at capacity.
	Evictions uint64
	// Size is the number of currently resident IDs.
	Size int
}

// dedupCache is a sharded duplicate-TxID set. All methods are safe for
// concurrent use; distinct transactions map to distinct shards with high
// probability, so there is no global lock anywhere.
type dedupCache struct {
	shards []dedupShard
	mask   uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// dedupShard is one stripe: a membership map plus a FIFO ring recording
// insertion order for eviction at capacity.
type dedupShard struct {
	mu   sync.Mutex
	set  map[string]struct{}
	ring []string
	head int // next ring slot to write (and evict from, once full)
	full bool
}

// nextPow2 rounds n up to the next power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newDedupCache creates a cache holding at least `capacity` transaction
// IDs, rounded up to a power of two and split evenly across the stripes.
// capacity <= 0 selects defaultDedupCapacity.
func newDedupCache(capacity int) *dedupCache {
	if capacity <= 0 {
		capacity = defaultDedupCapacity
	}
	capacity = nextPow2(capacity)
	shards := dedupShards
	if shards > capacity {
		shards = capacity
	}
	perShard := capacity / shards
	c := &dedupCache{shards: make([]dedupShard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		c.shards[i].set = make(map[string]struct{}, perShard)
		c.shards[i].ring = make([]string, perShard)
	}
	return c
}

// fnv1a hashes the key inline (FNV-1a, 64-bit) — no allocation, no
// interface dispatch on the hot path.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (c *dedupCache) shardFor(txID string) *dedupShard {
	return &c.shards[fnv1a(txID)&c.mask]
}

// Seen reports whether txID is resident, counting the lookup as a hit or
// miss. A miss is not authoritative — the caller falls through to the
// block-store index — but a hit is definitive for any ID added only
// after commit.
func (c *dedupCache) Seen(txID string) bool {
	s := c.shardFor(txID)
	s.mu.Lock()
	_, ok := s.set[txID]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok
}

// Add inserts txID, evicting the shard's oldest resident at capacity.
// It returns false when the ID was already resident (a duplicate),
// counting that as a hit; fresh inserts count neither hit nor miss.
func (c *dedupCache) Add(txID string) bool {
	s := c.shardFor(txID)
	s.mu.Lock()
	if _, ok := s.set[txID]; ok {
		s.mu.Unlock()
		c.hits.Add(1)
		return false
	}
	evicted := false
	if s.full {
		delete(s.set, s.ring[s.head])
		evicted = true
	}
	s.ring[s.head] = txID
	s.head++
	if s.head == len(s.ring) {
		s.head = 0
		s.full = true
	}
	s.set[txID] = struct{}{}
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
	return true
}

// Len returns the number of resident IDs.
func (c *dedupCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.set)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the total capacity (power of two) across all shards.
func (c *dedupCache) Capacity() int { return len(c.shards) * len(c.shards[0].ring) }

// Shards returns the stripe count (power of two).
func (c *dedupCache) Shards() int { return len(c.shards) }

// Stats returns a snapshot of the cache's counters.
func (c *dedupCache) Stats() DedupStats {
	return DedupStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.Len(),
	}
}
