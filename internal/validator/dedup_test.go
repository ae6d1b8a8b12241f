package validator

import (
	"fmt"
	"sync"
	"testing"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 64: 64, 65: 128, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPowerOfTwoSizing(t *testing.T) {
	c := newDedupCache(1000)
	if got := c.Capacity(); got != 1024 {
		t.Fatalf("Capacity() = %d, want 1024", got)
	}
	if s := c.Shards(); s&(s-1) != 0 {
		t.Fatalf("Shards() = %d, not a power of two", s)
	}
	// Tiny capacities collapse the stripe count rather than ending up
	// with zero-size shards.
	small := newDedupCache(4)
	if small.Capacity() != 4 {
		t.Fatalf("small Capacity() = %d, want 4", small.Capacity())
	}
	if small.Shards() > 4 {
		t.Fatalf("small Shards() = %d, want <= 4", small.Shards())
	}
	def := newDedupCache(0)
	if def.Capacity() != defaultDedupCapacity {
		t.Fatalf("default Capacity() = %d, want %d", def.Capacity(), defaultDedupCapacity)
	}
}

func TestSeenAddCounters(t *testing.T) {
	c := newDedupCache(128)
	if c.Seen("tx-a") {
		t.Fatal("Seen on empty cache returned true")
	}
	if !c.Add("tx-a") {
		t.Fatal("first Add returned false")
	}
	if !c.Seen("tx-a") {
		t.Fatal("Seen after Add returned false")
	}
	if c.Add("tx-a") {
		t.Fatal("second Add returned true")
	}
	st := c.Stats()
	// 1 miss (first Seen) + 2 hits (second Seen, duplicate Add).
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("Stats = %+v, want Hits=2 Misses=1", st)
	}
	if st.Size != 1 {
		t.Fatalf("Size = %d, want 1", st.Size)
	}
}

func TestEvictionAtCapacity(t *testing.T) {
	// Single-shard cache so FIFO order is fully deterministic.
	c := newDedupCache(4)
	if c.Shards() != 4 && c.Shards() != 1 {
		t.Logf("shards=%d cap=%d", c.Shards(), c.Capacity())
	}
	// Overfill well past capacity: residency must never exceed capacity
	// and evictions must account for the overflow exactly.
	const n = 64
	for i := 0; i < n; i++ {
		c.Add(fmt.Sprintf("tx-%03d", i))
	}
	st := c.Stats()
	if st.Size > c.Capacity() {
		t.Fatalf("Size %d exceeds capacity %d", st.Size, c.Capacity())
	}
	if got, want := int(st.Evictions), n-st.Size; got != want {
		t.Fatalf("Evictions = %d, want %d (n=%d resident=%d)", got, want, n, st.Size)
	}
	if st.Size != c.Len() {
		t.Fatalf("Stats.Size %d != Len() %d", st.Size, c.Len())
	}
}

func TestFIFOEvictionOrder(t *testing.T) {
	// Capacity 1 forces a single one-slot shard: each Add must evict the
	// previous resident.
	c := newDedupCache(1)
	c.Add("first")
	c.Add("second")
	if c.Seen("first") {
		t.Fatal("evicted ID still resident")
	}
	if !c.Seen("second") {
		t.Fatal("newest ID not resident")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
}

func TestStripedConcurrency(t *testing.T) {
	c := newDedupCache(1 << 12)
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := fmt.Sprintf("tx-%d-%d", g, i%500)
				c.Seen(id)
				c.Add(id)
				c.Seen(id)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st)
	}
	if st.Size > c.Capacity() {
		t.Fatalf("Size %d exceeds capacity %d", st.Size, c.Capacity())
	}
	// Every ID added this round and not evicted must be findable.
	if !c.Seen(fmt.Sprintf("tx-%d-%d", goroutines-1, 499)) && st.Evictions == 0 {
		t.Fatal("recently added ID missing without any eviction")
	}
}

func BenchmarkDedupCacheSeen(b *testing.B) {
	c := newDedupCache(1 << 16)
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-tx-%04d", i)
		c.Add(ids[i])
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Seen(ids[i&1023])
			i++
		}
	})
}
