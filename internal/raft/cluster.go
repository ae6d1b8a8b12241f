package raft

import (
	"errors"
	"fmt"
)

// Cluster is an in-memory harness running a set of raft nodes over a
// lossless (but partitionable) transport. It is the substrate of the
// ordering service and of the raft test suite. Cluster is not safe for
// concurrent use; the orderer serializes access.
type Cluster struct {
	nodes map[NodeID]*Node
	order []NodeID
	// down marks crashed nodes; their messages are dropped and they
	// receive nothing.
	down map[NodeID]bool
	// cut maps blocked (from -> to) links for partition testing.
	cut map[[2]NodeID]bool
	// inbox holds in-flight messages.
	inbox []Message
	// committed holds the entries committed since the last
	// TakeCommitted, in commit order, deduplicated by index, as observed
	// on any live node (all nodes agree by raft safety; tests assert this
	// explicitly). Leader no-op (empty) entries are never recorded.
	committed     []Entry
	nextCommitIdx uint64
}

// ErrNoLeader is returned when the cluster cannot elect a leader (e.g.
// because a majority is down).
var ErrNoLeader = errors.New("raft: no leader elected")

// NewCluster creates and wires n nodes named "node1".."nodeN".
func NewCluster(n int, seed int64) *Cluster {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("node%d", i+1))
	}
	c := &Cluster{
		nodes:         make(map[NodeID]*Node, n),
		order:         ids,
		down:          make(map[NodeID]bool),
		cut:           make(map[[2]NodeID]bool),
		nextCommitIdx: 1,
	}
	for i, id := range ids {
		c.nodes[id] = NewNode(Config{
			ID:    id,
			Peers: ids,
			Seed:  seed + int64(i)*7919,
		})
	}
	return c
}

// Nodes returns the node IDs in creation order.
func (c *Cluster) Nodes() []NodeID { return append([]NodeID(nil), c.order...) }

// Node returns a node by ID (nil if unknown).
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// Leader returns the current leader node, or nil.
func (c *Cluster) Leader() *Node {
	for _, id := range c.order {
		n := c.nodes[id]
		if !c.down[id] && n.State() == Leader {
			// Ignore stale leaders from older terms.
			isCurrent := true
			for _, other := range c.nodes {
				if other.Term() > n.Term() {
					isCurrent = false
					break
				}
			}
			if isCurrent {
				return n
			}
		}
	}
	return nil
}

// Crash takes a node offline; its state is retained for Restart.
func (c *Cluster) Crash(id NodeID) { c.down[id] = true }

// Restart brings a crashed node back online. (Volatile raft state such as
// votes persists here because the harness keeps the node object; the
// safety-critical persistent state — term, votedFor, log — is exactly what
// real raft persists.)
func (c *Cluster) Restart(id NodeID) { delete(c.down, id) }

// Partition severs bidirectional connectivity between two groups of nodes.
func (c *Cluster) Partition(groupA, groupB []NodeID) {
	for _, a := range groupA {
		for _, b := range groupB {
			c.cut[[2]NodeID{a, b}] = true
			c.cut[[2]NodeID{b, a}] = true
		}
	}
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.cut = make(map[[2]NodeID]bool) }

// Tick advances every live node one logical tick and delivers all
// resulting messages to quiescence.
func (c *Cluster) Tick() {
	for _, id := range c.order {
		if !c.down[id] {
			c.nodes[id].Tick()
		}
	}
	c.drain()
}

// drain exchanges messages until no node has pending output.
func (c *Cluster) drain() {
	for {
		for _, id := range c.order {
			n := c.nodes[id]
			msgs, committed := n.Ready()
			if !c.down[id] {
				c.recordCommitted(committed)
				for _, m := range msgs {
					if c.down[m.To] || c.cut[[2]NodeID{m.From, m.To}] {
						continue
					}
					c.inbox = append(c.inbox, m)
				}
			}
		}
		if len(c.inbox) == 0 {
			return
		}
		pending := c.inbox
		c.inbox = nil
		for _, m := range pending {
			if c.down[m.To] {
				continue
			}
			c.nodes[m.To].Step(m)
		}
	}
}

func (c *Cluster) recordCommitted(entries []Entry) {
	for _, e := range entries {
		if e.Index != c.nextCommitIdx {
			continue
		}
		c.nextCommitIdx++
		if len(e.Data) > 0 {
			c.committed = append(c.committed, e)
		}
	}
}

// TakeCommitted returns the entries committed since the previous call,
// in commit order with leader no-op (empty) entries filtered out, and
// forgets them. A caller that takes once per round therefore pays for
// that round's entries only, however long the log has grown.
func (c *Cluster) TakeCommitted() []Entry {
	out := c.committed
	c.committed = nil
	return out
}

// Compact compacts every live node's log up to min(upTo, applied) —
// entries already consumed by the application. Crashed nodes keep their
// logs and will be caught up via snapshot on restart.
func (c *Cluster) Compact(upTo uint64) {
	for _, id := range c.order {
		if c.down[id] {
			continue
		}
		n := c.nodes[id]
		limit := upTo
		if n.applied < limit {
			limit = n.applied
		}
		_ = n.Compact(limit) // bounded by applied, cannot fail
	}
}

// ElectLeader ticks until a leader emerges, returning it. It gives up
// after maxTicks.
func (c *Cluster) ElectLeader(maxTicks int) (*Node, error) {
	if l := c.Leader(); l != nil {
		return l, nil
	}
	for i := 0; i < maxTicks; i++ {
		c.Tick()
		if l := c.Leader(); l != nil {
			return l, nil
		}
	}
	return nil, ErrNoLeader
}

// Propose submits data through the current leader (electing one first if
// needed) and ticks until the entry commits. It returns the committed
// entry's index.
func (c *Cluster) Propose(data []byte, maxTicks int) (uint64, error) {
	idx, _, err := c.ProposeBatch([][]byte{data}, maxTicks)
	return idx, err
}

// ProposeBatch submits a batch of entries through the current leader
// (electing one first if needed) in a single consensus round: the leader
// appends all entries locally and replicates them with one
// AppendEntries exchange, then the cluster ticks until the whole batch
// commits. N batched entries cost one round instead of N — the
// throughput lever of the pipelined ordering service. Returns the index
// range [first, last] of the committed entries.
func (c *Cluster) ProposeBatch(datas [][]byte, maxTicks int) (first, last uint64, err error) {
	if len(datas) == 0 {
		return 0, 0, nil
	}
	leader, err := c.ElectLeader(maxTicks)
	if err != nil {
		return 0, 0, err
	}
	first, last, err = leader.ProposeBatch(datas)
	if err != nil {
		return 0, 0, fmt.Errorf("raft: propose via %s: %w", leader.ID(), err)
	}
	c.drain()
	for i := 0; i < maxTicks; i++ {
		if c.nextCommitIdx > last {
			return first, last, nil
		}
		c.Tick()
	}
	if c.nextCommitIdx > last {
		return first, last, nil
	}
	return 0, 0, fmt.Errorf("raft: entry %d did not commit within %d ticks", last, maxTicks)
}
