package raft

import (
	"fmt"
	"testing"
)

func TestCompactBasics(t *testing.T) {
	c := NewCluster(3, 21)
	for i := 0; i < 6; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("e%d", i)), 300); err != nil {
			t.Fatal(err)
		}
	}
	leader := mustElect(t, c)
	if err := leader.Compact(leader.applied); err != nil {
		t.Fatal(err)
	}
	if leader.FirstIndex() != leader.applied {
		t.Fatalf("first index = %d, want %d", leader.FirstIndex(), leader.applied)
	}
	// Compacting beyond applied is refused.
	if err := leader.Compact(leader.LastIndex() + 5); err == nil {
		t.Fatal("compaction beyond applied accepted")
	}
	// Re-compacting below the horizon is a no-op.
	if err := leader.Compact(1); err != nil {
		t.Fatal(err)
	}
	// The cluster keeps committing after compaction.
	if _, err := c.Propose([]byte("after"), 300); err != nil {
		t.Fatalf("propose after compaction: %v", err)
	}
	if got := c.TakeCommitted(); string(got[len(got)-1].Data) != "after" {
		t.Fatal("post-compaction entry lost")
	}
}

// TestSnapshotCatchUp crashes a follower, commits and compacts past its
// log, and checks the restarted follower is fast-forwarded via snapshot
// and continues replicating.
func TestSnapshotCatchUp(t *testing.T) {
	c := NewCluster(3, 23)
	leader := mustElect(t, c)

	// Crash a follower.
	var crashed NodeID
	for _, id := range c.Nodes() {
		if id != leader.ID() {
			crashed = id
			break
		}
	}
	c.Crash(crashed)

	for i := 0; i < 5; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("e%d", i)), 300); err != nil {
			t.Fatal(err)
		}
	}
	// Compact live nodes beyond the crashed follower's log.
	c.Compact(c.Node(leader.ID()).applied)
	if leader.FirstIndex() == 0 {
		t.Fatal("leader did not compact")
	}

	// Restart: the follower is behind the compaction horizon and must
	// be served a snapshot.
	c.Restart(crashed)
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	follower := c.Node(crashed)
	if follower.CommitIndex() < leader.FirstIndex() {
		t.Fatalf("follower commit %d below snapshot %d", follower.CommitIndex(), leader.FirstIndex())
	}

	// New entries reach the snapshotted follower.
	if _, err := c.Propose([]byte("fresh"), 300); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.Tick()
	}
	found := false
	for _, e := range follower.Entries(0, follower.CommitIndex()) {
		if string(e.Data) == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatal("post-snapshot entry did not reach the follower")
	}
}

// TestCompactionPreservesSafety: random compactions during a workload
// never break the committed-prefix agreement.
func TestCompactionPreservesSafety(t *testing.T) {
	c := NewCluster(3, 29)
	var got []Entry
	for i := 0; i < 10; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("e%d", i)), 300); err != nil {
			t.Fatal(err)
		}
		got = append(got, c.TakeCommitted()...)
		if i%3 == 2 {
			c.Compact(uint64(i))
		}
	}
	if len(got) != 10 {
		t.Fatalf("committed %d entries, want 10", len(got))
	}
	for i, e := range got {
		if string(e.Data) != fmt.Sprintf("e%d", i) {
			t.Fatalf("entry %d = %q", i, e.Data)
		}
	}
}
