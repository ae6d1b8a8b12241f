package raft

import (
	"fmt"
	"testing"
)

// BenchmarkCommitLatency measures a full propose-to-commit round as the
// ordering cluster grows — the consensus cost underlying every block the
// orderer cuts.
func BenchmarkCommitLatency(b *testing.B) {
	for _, size := range []int{1, 3, 5, 7} {
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			c := NewCluster(size, 99)
			if _, err := c.ElectLeader(500); err != nil {
				b.Fatal(err)
			}
			payload := []byte("tx-payload")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Propose(payload, 500); err != nil {
					b.Fatal(err)
				}
				c.TakeCommitted()
			}
		})
	}
}

// BenchmarkProposeBatch compares ordering N transactions one raft round
// at a time (N sequential Propose calls) against the multi-entry append
// path (one ProposeBatch call): the batch pays the round-trip and
// tick-to-commit cost once, so it should beat the sequential path by a
// wide margin (the pipelined orderer acceptance floor is 3x at N=100).
func BenchmarkProposeBatch(b *testing.B) {
	const n = 100
	payload := []byte("tx-payload")
	datas := make([][]byte, n)
	for i := range datas {
		datas[i] = payload
	}
	b.Run(fmt.Sprintf("sequential/n=%d", n), func(b *testing.B) {
		c := NewCluster(3, 99)
		if _, err := c.ElectLeader(500); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				if _, err := c.Propose(payload, 500); err != nil {
					b.Fatal(err)
				}
			}
			c.TakeCommitted()
		}
	})
	b.Run(fmt.Sprintf("batched/n=%d", n), func(b *testing.B) {
		c := NewCluster(3, 99)
		if _, err := c.ElectLeader(500); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.ProposeBatch(datas, 500); err != nil {
				b.Fatal(err)
			}
			c.TakeCommitted()
		}
	})
}

// BenchmarkElection measures leader election from a cold cluster.
func BenchmarkElection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewCluster(5, int64(i))
		if _, err := c.ElectLeader(500); err != nil {
			b.Fatal(err)
		}
	}
}
