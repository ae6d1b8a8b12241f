package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Stamps of one traced transaction, in nominal order. In-process every
// stamp exists; over the wire proposed/endorsed/ordered collapse into the
// gateway's submit RPC, which is all the client process can see.
const (
	stDue = iota
	stSent
	stProposed
	stEndorsed
	stOrdered
	stCut
	stCommitted
	stNotified
	nStamps
)

// stage i spans stamp i → i+1.
var stageNames = [nStamps - 1]string{
	"gen.lag", "gateway.propose", "gateway.endorse", "orderer.order",
	"orderer.cut_wait", "peer.commit", "deliver.notify",
}

// span is one timed call at a layer boundary. Spans of one operation
// share its trace id (the TxID for transactions).
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"` // since the phase start
	End    int64  `json:"end_ns"`
}

// opTrace collects what the decorators and the staged driver observe for
// one operation. Endorsers run concurrently, hence the lock.
type opTrace struct {
	mu     sync.Mutex
	txID   string
	query  bool
	stamps [nStamps]time.Time
	calls  []call
}

type call struct {
	name, node string
	start, end time.Time
}

func (t *opTrace) add(name, node string, start, end time.Time) {
	t.mu.Lock()
	t.calls = append(t.calls, call{name, node, start, end})
	t.mu.Unlock()
}

type traceKey struct{}

func withTrace(ctx context.Context, t *opTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

func traceFrom(ctx context.Context) *opTrace {
	t, _ := ctx.Value(traceKey{}).(*opTrace)
	return t
}

// stages turns the stamps into stage durations. Stamps are taken on
// different goroutines, so they can arrive out of nominal order: a stamp
// earlier than its predecessor is clamped to it (the stage reads 0 and is
// counted), which keeps the stages of one transaction summing exactly to
// due→notified. A missing stamp (zero) inherits its predecessor.
func (t *opTrace) stages() (d [nStamps - 1]time.Duration, clamped int) {
	// Order returns only after every registered peer processed a block cut
	// in the same round, so it can return after the cut was seen; consensus
	// ended no later than the cut.
	if !t.stamps[stCut].IsZero() && t.stamps[stOrdered].After(t.stamps[stCut]) {
		t.stamps[stOrdered] = t.stamps[stCut]
	}
	prev := t.stamps[stDue]
	for i := 1; i < nStamps; i++ {
		s := t.stamps[i]
		if s.IsZero() {
			s = prev
		} else if s.Before(prev) {
			s = prev
			clamped++
		}
		d[i-1] = s.Sub(prev)
		prev = s
	}
	return d, clamped
}

// spans renders the operation as a span tree rooted at "op".
func (t *opTrace) spans(origin time.Time) []span {
	rel := func(x time.Time) int64 { return x.Sub(origin).Nanoseconds() }
	root := "tx"
	if t.query {
		root = "query"
	}
	out := []span{{Trace: t.txID, Name: root, Start: rel(t.stamps[stDue]), End: rel(t.stamps[stNotified])}}
	if !t.query {
		prev := t.stamps[stDue]
		for i := 1; i < nStamps; i++ {
			s := t.stamps[i]
			if s.IsZero() || s.Before(prev) {
				continue
			}
			out = append(out, span{Trace: t.txID, Name: stageNames[i-1], Parent: root, Start: rel(prev), End: rel(s)})
			prev = s
		}
	}
	for _, c := range t.calls {
		parent := root
		switch c.name {
		case "endorser.endorse":
			parent = "gateway.endorse"
		case "orderer.order.call":
			parent = "orderer.order"
		}
		out = append(out, span{Trace: t.txID, Name: c.name, Parent: parent, Node: c.node, Start: rel(c.start), End: rel(c.end)})
	}
	return out
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
