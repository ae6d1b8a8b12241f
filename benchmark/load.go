package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is what one executed operation contributes to a phase.
type opResult struct {
	done      time.Time
	latency   time.Duration // due → commit notified / reply
	lag       time.Duration // due → sent
	query     bool
	failed    bool
	committed bool // a commit status was observed, whatever the code
	invalid   bool // MVCC-invalid: a correct outcome, not a failure
	retries   int
	userBytes int
	why       string // what failed, for the report
	trace     *opTrace
}

// phaseResult aggregates one phase.
type phaseResult struct {
	name                      string
	wall                      time.Duration
	offered, attempted        int
	failed, committed         int
	invalid, retries, backlog int
	committedInWindow         int // commit statuses observed before the phase deadline
	userBytes                 int
	txMs, queryMs, lagMs      []float64 // sorted
	failures                  []string  // the first few reasons
	traces                    []*opTrace
}

func (p *phaseResult) add(r opResult, deadline time.Time) {
	p.attempted++
	p.retries += r.retries
	p.lagMs = append(p.lagMs, ms(r.lag))
	if r.failed {
		p.failed++
		if len(p.failures) < 3 {
			p.failures = append(p.failures, r.why)
		}
		return
	}
	if r.trace != nil {
		p.traces = append(p.traces, r.trace)
	}
	if r.query {
		p.queryMs = append(p.queryMs, ms(r.latency))
		return
	}
	p.txMs = append(p.txMs, ms(r.latency))
	if r.committed {
		p.committed++
		p.userBytes += r.userBytes
		if !r.done.After(deadline) {
			p.committedInWindow++
		}
	}
	if r.invalid {
		p.invalid++
	}
}

func (p *phaseResult) finish() {
	sort.Float64s(p.txMs)
	sort.Float64s(p.queryMs)
	sort.Float64s(p.lagMs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quantile is the nearest-rank q-quantile of a sorted sample (0 if empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tracker remembers, per key, the values acknowledged VALID in the
// highest block seen: with several writes of one key in flight the last
// acknowledged value is one of those, whichever the block ordered last.
type tracker struct {
	mu   sync.Mutex
	keys map[string]*keyState
}

type keyState struct {
	block  uint64
	hashes []uint64
}

func hashValue(v []byte) uint64 {
	h := fnv.New64a()
	h.Write(v)
	return h.Sum64()
}

func (t *tracker) ack(key string, block uint64, value []byte) {
	h := hashValue(value)
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := t.keys[key]
	switch {
	case ks == nil:
		t.keys[key] = &keyState{block: block, hashes: []uint64{h}}
	case block > ks.block:
		ks.block, ks.hashes = block, append(ks.hashes[:0], h)
	case block == ks.block:
		ks.hashes = append(ks.hashes, h)
	}
}

// sample picks up to n written keys, spread evenly over the sorted set.
func (t *tracker) sample(n int) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := make([]string, 0, len(t.keys))
	for k := range t.keys {
		all = append(all, k)
	}
	sort.Strings(all)
	if len(all) <= n {
		return all
	}
	out := make([]string, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

func (t *tracker) matches(key string, value []byte) bool {
	h := hashValue(value)
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := t.keys[key]
	if ks == nil {
		return false
	}
	for _, have := range ks.hashes {
		if have == h {
			return true
		}
	}
	return false
}

// driver runs generated operations against one built system.
type driver struct {
	sys   *system
	gen   *generator
	track *tracker
}

func newDriver(sys *system, gen *generator) *driver {
	return &driver{sys: sys, gen: gen, track: &tracker{keys: make(map[string]*keyState)}}
}

// readOK checks a query's reply: it must be a value of the key asked for.
func (d *driver) readOK(o *op, out []byte) bool {
	if d.gen.w.pdc {
		_, err := strconv.Atoi(string(out))
		return err == nil
	}
	if !strings.HasPrefix(string(out), o.key[1:]+":") {
		return false
	}
	return d.gen.w.valueBytes <= 64 || len(out) == d.gen.w.valueBytes
}

// exec runs one operation the way an SDK caller would and times it from
// the instant it was due. tr, when set, asks for the staged traced path.
func (d *driver) exec(c client, o op, due time.Time, tr *opTrace) opResult {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	sent := time.Now()
	r := opResult{query: o.query, lag: sent.Sub(due), trace: tr}
	if tr != nil {
		tr.query = o.query
		tr.stamps[stDue], tr.stamps[stSent] = due, sent
	}
	if o.query {
		out, err := c.evaluate(ctx, &o, tr)
		r.done = time.Now()
		if tr != nil {
			tr.stamps[stNotified] = r.done
		}
		switch {
		case err != nil:
			r.failed, r.why = true, fmt.Sprintf("%s %v: %v", o.fn, o.args, err)
		case !d.readOK(&o, out):
			r.failed, r.why = true, fmt.Sprintf("%s %v: wrong reply %.40q", o.fn, o.args, out)
		}
		r.latency = r.done.Sub(due)
		return r
	}
	var out txOutcome
	var err error
	for {
		out, err = c.submit(ctx, &o, tr)
		if err == nil || !retryable(err) || r.retries == maxRetries {
			break
		}
		r.retries++
		// Endorsers disagree while one of them is a block behind; an SDK
		// caller backs off rather than re-asking at once.
		time.Sleep(time.Duration(r.retries) * retryBackoff)
	}
	r.done = time.Now()
	r.latency = r.done.Sub(due)
	if err != nil {
		r.failed, r.why = true, fmt.Sprintf("%s %.40q after %d retries: %v", o.fn, o.args, r.retries, err)
		return r
	}
	r.committed = true
	switch {
	case out.valid:
		switch o.fn {
		case "set", "setPrivate":
			d.track.ack(o.key, out.block, []byte(o.args[1]))
			r.userBytes = len(o.key) + len(o.args[1])
		case "addPrivate":
			d.track.ack(o.key, out.block, out.payload)
			r.userBytes = len(o.key) + len(out.payload)
		}
	case out.code == "MVCC_READ_CONFLICT":
		r.invalid = true
	default:
		// any other validation code is a wrong result
		r.failed, r.why = true, fmt.Sprintf("%s %.40q: committed %s", o.fn, o.args, out.code)
	}
	return r
}

// openLoop follows the phase's absolute schedule. An arrival is handed to
// one of inflightMax workers; when all are busy the hand-off blocks, the
// arrival waits, and its latency still counts from its due instant.
// Arrivals not handed off when the phase ends are the backlog.
func (d *driver) openLoop(name string, phase int, rate float64, dur time.Duration, traced bool) *phaseResult {
	sched := d.gen.schedule(phase, rate, dur)
	results := make([]opResult, len(sched))
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < inflightMax; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				var tr *opTrace
				if traced {
					tr = &opTrace{}
				}
				results[i] = d.exec(d.sys.clients[i%len(d.sys.clients)], d.gen.op(phase, i), start.Add(sched[i]), tr)
			}
		}()
	}
	deadline := time.NewTimer(dur)
	defer deadline.Stop()
	dispatched := 0
dispatch:
	for i, due := range sched {
		sleepUntil(start.Add(due))
		select {
		case work <- i:
			dispatched++
		case <-deadline.C:
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	p := &phaseResult{name: name, wall: dur, offered: len(sched), backlog: len(sched) - dispatched}
	for _, r := range results[:dispatched] {
		p.add(r, start.Add(dur))
	}
	p.finish()
	return p
}

// sleepUntil returns at t, not a timer quantum after it: time.Sleep
// overshoots by up to a millisecond here, which at idle would be most of
// the latency being measured. It sleeps short of t and yields the rest
// of the way, so other goroutines still get the processor.
func sleepUntil(t time.Time) {
	const slack = 1500 * time.Microsecond
	for {
		wait := time.Until(t)
		switch {
		case wait <= 0:
			return
		case wait > slack:
			time.Sleep(wait - slack)
		default:
			runtime.Gosched()
		}
	}
}

// closedLoop keeps exactly inflightMax operations in flight until the
// deadline: n, when positive, instead runs operations 0..n-1 of ops (the
// set-up writes) to completion.
func (d *driver) closedLoop(name string, dur time.Duration, n int, ops func(i int) op) *phaseResult {
	var next atomic.Int64
	perWorker := make([][]opResult, inflightMax)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < inflightMax; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n || n == 0 && !time.Now().Before(deadline) {
					return
				}
				perWorker[w] = append(perWorker[w], d.exec(d.sys.clients[i%len(d.sys.clients)], ops(i), time.Now(), nil))
			}
		}(w)
	}
	wg.Wait()
	p := &phaseResult{name: name, wall: dur}
	if n > 0 {
		p.wall, deadline = time.Since(start), time.Now()
	}
	for _, rs := range perWorker {
		for _, r := range rs {
			p.add(r, deadline)
		}
	}
	p.offered = p.attempted
	p.finish()
	return p
}
