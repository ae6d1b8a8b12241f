package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// op is one generated operation: what an SDK caller would ask for.
type op struct {
	due   time.Duration // offset from the phase start (open loop only)
	query bool
	fn    string
	args  []string
	key   string
}

// rng is splitmix64: each operation draws from its own stream seeded by
// (seed, workload, phase, index), so the op stream is a pure function of
// the seed and can be produced lazily, by index, on any goroutine.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func newRNG(parts ...uint64) rng {
	var r rng
	for _, p := range parts {
		r = rng(r.next() ^ p)
	}
	r.next()
	return r
}

func nameHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.LittleEndian.Uint64(sum[:8])
}

// generator produces a workload's operations for one seed.
type generator struct {
	w       *workload
	seed    uint64
	zipfCDF []float64
	filler  string // shared tail of large values
}

func newGenerator(w *workload, seed int64) *generator {
	g := &generator{w: w, seed: uint64(seed)}
	if w.zipf {
		// Zipf(s=1.2) over the key space as a CDF table: sampling is then
		// a pure function of one uniform draw.
		g.zipfCDF = make([]float64, w.keys)
		sum := 0.0
		for k := range g.zipfCDF {
			sum += 1 / math.Pow(float64(k+1), 1.2)
			g.zipfCDF[k] = sum
		}
		for k := range g.zipfCDF {
			g.zipfCDF[k] /= sum
		}
	}
	if w.valueBytes > 64 {
		r := newRNG(g.seed, nameHash(w.name), 0xf111)
		var b strings.Builder
		for b.Len() < w.valueBytes {
			b.WriteString(strconv.FormatUint(r.next(), 36))
		}
		g.filler = b.String()[:w.valueBytes]
	}
	return g
}

func (g *generator) keyName(k int) string { return fmt.Sprintf("k%04d", k) }

// value builds the value op (phase, i) writes to key: it names the key,
// so a read can tell whose value it got, and the writing op, so the
// last write is identifiable.
func (g *generator) value(key string, phase, i int) string {
	if g.w.pdc {
		return strconv.Itoa((phase*1000003 + i) % 1000000)
	}
	v := key[1:] + ":" + strconv.Itoa(phase) + strconv.FormatInt(int64(i), 36)
	if g.filler != "" {
		return v + ":" + g.filler[:g.w.valueBytes-len(v)-1]
	}
	return v
}

// seedOp is the i-th set-up write: it gives key i its first value.
func (g *generator) seedOp(i int) op {
	key := g.keyName(i)
	fn := "set"
	if g.w.pdc {
		fn = "setPrivate"
	}
	return op{fn: fn, key: key, args: []string{key, g.value(key, phaseSeed, i)}}
}

// op returns operation i of a phase.
func (g *generator) op(phase, i int) op {
	r := newRNG(g.seed, nameHash(g.w.name), uint64(phase), uint64(i))
	u := r.float()
	var m mixEntry
	for _, m = range g.w.mix {
		if u < m.share {
			break
		}
		u -= m.share
	}
	o := op{fn: m.fn, query: m.query}
	writes := !m.query && m.fn != "readPrivate"
	switch {
	case g.w.unique && writes:
		o.key = fmt.Sprintf("u%d.%d", phase, i)
	case g.w.zipf:
		k := sort.SearchFloat64s(g.zipfCDF, r.float())
		if !writes {
			k %= g.w.preseed
		}
		o.key = g.keyName(k)
	case writes:
		o.key = g.keyName(r.intn(g.w.keys))
	default:
		o.key = g.keyName(r.intn(g.w.preseed))
	}
	switch m.fn {
	case "set", "setPrivate":
		o.args = []string{o.key, g.value(o.key, phase, i)}
	case "addPrivate":
		o.args = []string{o.key, strconv.Itoa(1 + r.intn(9))}
	default:
		o.args = []string{o.key}
	}
	return o
}

// schedule returns the due offsets of an open-loop phase: Poisson
// arrivals at rate ops/s over d, as independent users produce them.
func (g *generator) schedule(phase int, rate float64, d time.Duration) []time.Duration {
	r := newRNG(g.seed, nameHash(g.w.name), uint64(phase), 0x5c4ed)
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}
