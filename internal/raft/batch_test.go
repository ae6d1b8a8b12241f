package raft

import (
	"fmt"
	"testing"
)

func TestProposeBatchCommitsAllInOrder(t *testing.T) {
	c := NewCluster(3, 11)
	datas := make([][]byte, 20)
	for i := range datas {
		datas[i] = []byte(fmt.Sprintf("batch%d", i))
	}
	first, last, err := c.ProposeBatch(datas, 200)
	if err != nil {
		t.Fatalf("propose batch: %v", err)
	}
	if last-first+1 != uint64(len(datas)) {
		t.Fatalf("index range [%d,%d] for %d entries", first, last, len(datas))
	}
	committed := c.TakeCommitted()
	if len(committed) != len(datas) {
		t.Fatalf("committed %d entries, want %d", len(committed), len(datas))
	}
	for i, e := range committed {
		if string(e.Data) != fmt.Sprintf("batch%d", i) {
			t.Fatalf("entry %d = %q", i, e.Data)
		}
	}
}

func TestProposeBatchInterleavesWithSingleProposals(t *testing.T) {
	c := NewCluster(3, 12)
	var got []string
	take := func() {
		for _, e := range c.TakeCommitted() {
			got = append(got, string(e.Data))
		}
	}
	if _, err := c.Propose([]byte("pre"), 200); err != nil {
		t.Fatal(err)
	}
	take()
	if _, _, err := c.ProposeBatch([][]byte{[]byte("a"), []byte("b")}, 200); err != nil {
		t.Fatal(err)
	}
	take()
	if _, err := c.Propose([]byte("post"), 200); err != nil {
		t.Fatal(err)
	}
	take()
	want := []string{"pre", "a", "b", "post"}
	if len(got) != len(want) {
		t.Fatalf("committed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("committed %v, want %v", got, want)
		}
	}
}

func TestProposeBatchEmptyIsNoOp(t *testing.T) {
	c := NewCluster(3, 13)
	first, last, err := c.ProposeBatch(nil, 200)
	if err != nil || first != 0 || last != 0 {
		t.Fatalf("empty batch: first=%d last=%d err=%v", first, last, err)
	}
	if len(c.TakeCommitted()) != 0 {
		t.Fatal("empty batch committed entries")
	}
}

func TestProposeBatchOnFollowerFails(t *testing.T) {
	c := NewCluster(3, 14)
	leader, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range c.Nodes() {
		if id == leader.ID() {
			continue
		}
		if _, _, err := c.Node(id).ProposeBatch([][]byte{[]byte("x")}); err != ErrNotLeader {
			t.Fatalf("follower batch propose: %v", err)
		}
	}
}

// TestProposeBatchSurvivesLeaderCrash: a batch committed before the crash
// survives re-election, and batches keep committing through the new
// leader.
func TestProposeBatchSurvivesLeaderCrash(t *testing.T) {
	c := NewCluster(3, 15)
	if _, _, err := c.ProposeBatch([][]byte{[]byte("a"), []byte("b")}, 200); err != nil {
		t.Fatal(err)
	}
	taken := c.TakeCommitted()
	leader, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(leader.ID())
	if _, _, err := c.ProposeBatch([][]byte{[]byte("c"), []byte("d")}, 500); err != nil {
		t.Fatalf("batch after leader crash: %v", err)
	}
	var got []string
	for _, e := range append(taken, c.TakeCommitted()...) {
		got = append(got, string(e.Data))
	}
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("committed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("committed %v, want %v", got, want)
		}
	}
}

// TestProposeBatchMinorityPartitionNeverCommits: a batch appended by a
// leader cut off from the majority must be overwritten after the heal —
// batching does not weaken the commit quorum.
func TestProposeBatchMinorityPartitionNeverCommits(t *testing.T) {
	c := NewCluster(5, 16)
	leader, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	var minority, majority []NodeID
	minority = append(minority, leader.ID())
	for _, id := range c.Nodes() {
		if id == leader.ID() {
			continue
		}
		if len(minority) < 2 {
			minority = append(minority, id)
		} else {
			majority = append(majority, id)
		}
	}
	c.Partition(minority, majority)

	// The isolated leader appends the batch locally; it must never reach
	// a quorum.
	if _, _, err := leader.ProposeBatch([][]byte{[]byte("doomed1"), []byte("doomed2")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	c.Heal()
	for i := 0; i < 300; i++ {
		c.Tick()
	}
	// Drive a fresh committed entry through the healed cluster, then
	// check no node retains the doomed batch in its committed prefix.
	if _, err := c.Propose([]byte("after-heal"), 500); err != nil {
		t.Fatalf("propose after heal: %v", err)
	}
	for _, id := range c.Nodes() {
		n := c.Node(id)
		for _, e := range n.Entries(0, n.CommitIndex()) {
			if string(e.Data) == "doomed1" || string(e.Data) == "doomed2" {
				t.Fatalf("node %s committed a doomed batch entry", id)
			}
		}
	}
}
