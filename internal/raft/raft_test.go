package raft

import (
	"fmt"
	"testing"
	"testing/quick"
)

func mustElect(t *testing.T, c *Cluster) *Node {
	t.Helper()
	leader, err := c.ElectLeader(500)
	if err != nil {
		t.Fatalf("no leader: %v", err)
	}
	return leader
}

func TestSingleNodeBecomesLeader(t *testing.T) {
	c := NewCluster(1, 1)
	leader := mustElect(t, c)
	if leader.State() != Leader {
		t.Fatal("single node not leader")
	}
	if _, err := c.Propose([]byte("x"), 100); err != nil {
		t.Fatalf("propose: %v", err)
	}
	if got := c.TakeCommitted(); len(got) != 1 || string(got[0].Data) != "x" {
		t.Fatalf("committed = %v", got)
	}
}

func TestThreeNodeElection(t *testing.T) {
	c := NewCluster(3, 42)
	leader := mustElect(t, c)

	// Exactly one current-term leader.
	leaders := 0
	for _, id := range c.Nodes() {
		n := c.Node(id)
		if n.State() == Leader && n.Term() == leader.Term() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d", leaders)
	}
	// Followers learn the leader.
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	for _, id := range c.Nodes() {
		if got := c.Node(id).Leader(); got != leader.ID() {
			t.Fatalf("node %s believes leader is %q", id, got)
		}
	}
}

func TestReplicationAcrossNodes(t *testing.T) {
	c := NewCluster(3, 7)
	var committed []Entry
	for i := 0; i < 5; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("entry%d", i)), 200); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		committed = append(committed, c.TakeCommitted()...)
	}
	if len(committed) != 5 {
		t.Fatalf("committed %d entries", len(committed))
	}
	for i, e := range committed {
		if string(e.Data) != fmt.Sprintf("entry%d", i) {
			t.Fatalf("entry %d = %q", i, e.Data)
		}
	}
	// All nodes agree on the committed prefix (log matching).
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	ref := c.Node(c.Nodes()[0])
	for _, id := range c.Nodes()[1:] {
		n := c.Node(id)
		limit := min(ref.CommitIndex(), n.CommitIndex())
		a := ref.Entries(0, limit)
		b := n.Entries(0, limit)
		if len(a) != len(b) {
			t.Fatalf("logs differ in length")
		}
		for j := range a {
			if a[j].Term != b[j].Term || string(a[j].Data) != string(b[j].Data) {
				t.Fatalf("log mismatch at %d", j)
			}
		}
	}
}

// TestTakeCommittedHandsOutEachEntryOnce: entries taken round by round
// concatenate to the whole committed sequence, each exactly once, and a
// drained cluster holds no committed entries.
func TestTakeCommittedHandsOutEachEntryOnce(t *testing.T) {
	c := NewCluster(3, 17)
	var got []string
	for round := 0; round < 4; round++ {
		datas := [][]byte{[]byte(fmt.Sprintf("r%d-a", round)), []byte(fmt.Sprintf("r%d-b", round))}
		if _, _, err := c.ProposeBatch(datas, 200); err != nil {
			t.Fatal(err)
		}
		for _, e := range c.TakeCommitted() {
			got = append(got, string(e.Data))
		}
		if len(c.committed) != 0 {
			t.Fatalf("round %d: cluster still holds %d committed entries after a take", round, len(c.committed))
		}
		if again := c.TakeCommitted(); len(again) != 0 {
			t.Fatalf("round %d: second take returned %d entries", round, len(again))
		}
	}
	if len(got) != 8 {
		t.Fatalf("took %v, want 8 entries", got)
	}
	for i, d := range got {
		if want := fmt.Sprintf("r%d-%c", i/2, 'a'+i%2); d != want {
			t.Fatalf("entry %d = %q, want %q", i, d, want)
		}
	}
}

func TestLeaderCrashTriggersReelection(t *testing.T) {
	c := NewCluster(3, 11)
	old := mustElect(t, c)
	if _, err := c.Propose([]byte("before"), 200); err != nil {
		t.Fatal(err)
	}
	entries := c.TakeCommitted()

	c.Crash(old.ID())
	newLeader, err := c.ElectLeader(500)
	if err != nil {
		t.Fatalf("no new leader after crash: %v", err)
	}
	if newLeader.ID() == old.ID() {
		t.Fatal("crashed node still leader")
	}
	if newLeader.Term() <= old.Term() {
		t.Fatal("term did not advance")
	}

	// The cluster keeps committing.
	if _, err := c.Propose([]byte("after"), 500); err != nil {
		t.Fatalf("propose after crash: %v", err)
	}
	entries = append(entries, c.TakeCommitted()...)
	if len(entries) != 2 || string(entries[1].Data) != "after" {
		t.Fatalf("committed = %v", entries)
	}

	// The crashed node catches up after restart.
	c.Restart(old.ID())
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	if old.CommitIndex() < newLeader.CommitIndex() {
		t.Fatalf("restarted node commit %d < leader %d", old.CommitIndex(), newLeader.CommitIndex())
	}
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	c := NewCluster(5, 13)
	leader := mustElect(t, c)

	// Isolate the leader with one follower (minority).
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

	// The old leader can append locally but must not commit.
	before := leader.CommitIndex()
	if _, err := leader.Propose([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	if leader.CommitIndex() > before+0 && leader.log[leader.CommitIndex()].Term == leader.Term() && leader.CommitIndex() >= leader.LastIndex() {
		t.Fatal("minority leader committed an entry")
	}

	// The majority elects its own leader and commits.
	var majLeader *Node
	for i := 0; i < 500 && majLeader == nil; i++ {
		c.Tick()
		for _, id := range majority {
			if c.Node(id).State() == Leader {
				majLeader = c.Node(id)
			}
		}
	}
	if majLeader == nil {
		t.Fatal("majority elected no leader")
	}
	idx, err := majLeader.Propose([]byte("survives"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	if majLeader.CommitIndex() < idx {
		t.Fatal("majority could not commit")
	}

	// Heal: the doomed entry is overwritten everywhere.
	c.Heal()
	for i := 0; i < 200; i++ {
		c.Tick()
	}
	for _, id := range c.Nodes() {
		n := c.Node(id)
		found := false
		for _, e := range n.Entries(0, n.CommitIndex()) {
			if string(e.Data) == "doomed" {
				found = true
			}
		}
		if found {
			t.Fatalf("node %s committed the doomed entry", id)
		}
	}
}

func TestProposeOnFollowerFails(t *testing.T) {
	c := NewCluster(3, 5)
	leader := mustElect(t, c)
	for _, id := range c.Nodes() {
		if id == leader.ID() {
			continue
		}
		if _, err := c.Node(id).Propose([]byte("x")); err != ErrNotLeader {
			t.Fatalf("follower propose err = %v", err)
		}
	}
}

func TestNoLeaderWithMajorityDown(t *testing.T) {
	c := NewCluster(3, 3)
	c.Crash(c.Nodes()[0])
	c.Crash(c.Nodes()[1])
	if _, err := c.ElectLeader(200); err == nil {
		t.Fatal("leader elected without quorum")
	}
}

// TestSingleLeaderPerTermQuick: across random seeds, after any number of
// ticks, no two live nodes are leader in the same term — the Raft
// election-safety invariant.
func TestSingleLeaderPerTermQuick(t *testing.T) {
	f := func(seed int64, ticks uint8) bool {
		c := NewCluster(5, seed)
		leadersByTerm := make(map[Term]NodeID)
		for i := 0; i < int(ticks)+20; i++ {
			c.Tick()
			for _, id := range c.Nodes() {
				n := c.Node(id)
				if n.State() == Leader {
					if prev, ok := leadersByTerm[n.Term()]; ok && prev != id {
						return false
					}
					leadersByTerm[n.Term()] = id
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestLogMatchingQuick: random workloads with a mid-stream leader crash
// still leave all nodes with identical committed prefixes.
func TestLogMatchingQuick(t *testing.T) {
	f := func(seed int64, crashAt uint8) bool {
		c := NewCluster(3, seed)
		for i := 0; i < 6; i++ {
			if i == int(crashAt%6) {
				if l := c.Leader(); l != nil {
					c.Crash(l.ID())
					// Bring it back later so quorum persists.
					defer c.Restart(l.ID())
				}
			}
			// Propose may fail while a new leader emerges; retry once.
			if _, err := c.Propose([]byte(fmt.Sprintf("e%d", i)), 400); err != nil {
				if _, err := c.Propose([]byte(fmt.Sprintf("e%d", i)), 400); err != nil {
					return true // no quorum progress is acceptable; safety is what we check
				}
			}
		}
		for i := 0; i < 20; i++ {
			c.Tick()
		}
		// Committed prefixes agree.
		var ref []Entry
		var refIdx uint64
		for _, id := range c.Nodes() {
			n := c.Node(id)
			if n.CommitIndex() > refIdx {
				refIdx = n.CommitIndex()
				ref = n.Entries(0, refIdx)
			}
		}
		for _, id := range c.Nodes() {
			n := c.Node(id)
			got := n.Entries(0, n.CommitIndex())
			for j, e := range got {
				if ref[j].Term != e.Term || string(ref[j].Data) != string(e.Data) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestStateAndMsgTypeStrings(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Error("state strings wrong")
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state string wrong")
	}
	for mt, want := range map[MsgType]string{
		MsgVoteRequest: "VoteRequest", MsgVoteResponse: "VoteResponse",
		MsgAppend: "Append", MsgAppendResponse: "AppendResponse",
		MsgType(9): "MsgType(9)",
	} {
		if mt.String() != want {
			t.Errorf("%d.String() = %q", int(mt), mt.String())
		}
	}
}
