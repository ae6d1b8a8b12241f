package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"
)

// streamHash is the SHA-256 over (due_ns, kind, fn, args) of the first n
// operations of a phase: equal seeds must give equal hashes.
func (g *generator) streamHash(phase int, rate float64, n int) string {
	sched := g.schedule(phase, rate, time.Duration(float64(n)/rate*2*float64(time.Second)))
	if len(sched) < n {
		n = len(sched)
	}
	h := sha256.New()
	var num [8]byte
	for i := 0; i < n; i++ {
		o := g.op(phase, i)
		binary.LittleEndian.PutUint64(num[:], uint64(sched[i]))
		h.Write(num[:])
		if o.query {
			h.Write([]byte{'q'})
		} else {
			h.Write([]byte{'t'})
		}
		h.Write([]byte(o.fn))
		for _, a := range o.args {
			h.Write([]byte{0})
			h.Write([]byte(a))
		}
		h.Write([]byte{1})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The op stream is a pure function of the seed: same seed, byte-identical
// stream; another seed, another stream.
func TestOpStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := newGenerator(w, 1).streamHash(phaseLoaded, w.rate, 2000)
		b := newGenerator(w, 1).streamHash(phaseLoaded, w.rate, 2000)
		c := newGenerator(w, 2).streamHash(phaseLoaded, w.rate, 2000)
		if a != b {
			t.Errorf("%s: seed 1 gave two streams: %s, %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
		if sat := newGenerator(w, 1).streamHash(phaseSat, w.rate, 2000); sat == a {
			t.Errorf("%s: loaded and sat phases share a stream", w.name)
		}
	}
}

// Each workload's op-mix shares land within 1 % of its table over 10 k ops.
func TestOpMixShares(t *testing.T) {
	const n = 10000
	for _, w := range workloads {
		g := newGenerator(w, 1)
		type kind struct {
			fn    string
			query bool
		}
		got := make(map[kind]int)
		for i := 0; i < n; i++ {
			o := g.op(phaseLoaded, i)
			got[kind{o.fn, o.query}]++
		}
		total := 0.0
		for _, m := range w.mix {
			total += m.share
			share := float64(got[kind{m.fn, m.query}]) / n
			if math.Abs(share-m.share) > 0.01 {
				t.Errorf("%s: %s (query=%v) share %.4f, want %.2f", w.name, m.fn, m.query, share, m.share)
			}
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: mix shares sum to %v", w.name, total)
		}
	}
}

// The open-loop schedule offers the stated rate and only reads keys that
// set-up wrote.
func TestScheduleAndKeys(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w, 3)
		sched := g.schedule(phaseLoaded, w.rate, 20*time.Second)
		if got := float64(len(sched)) / 20; math.Abs(got-w.rate)/w.rate > 0.1 {
			t.Errorf("%s: schedule offers %.1f ops/s, want %.0f", w.name, got, w.rate)
		}
		for i := 1; i < len(sched); i++ {
			if sched[i] < sched[i-1] {
				t.Fatalf("%s: schedule not monotonic at %d", w.name, i)
			}
		}
		seeded := make(map[string]bool, w.preseed)
		for i := 0; i < w.preseed; i++ {
			seeded[g.seedOp(i).key] = true
		}
		for i := 0; i < 5000; i++ {
			if o := g.op(phaseLoaded, i); (o.query || o.fn == "readPrivate") && !seeded[o.key] {
				t.Fatalf("%s: op %d reads %s, which set-up never wrote", w.name, i, o.key)
			}
		}
	}
}
