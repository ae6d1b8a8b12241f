package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one emitted number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseSummary is the sample count and validity record printed beside
// every percentile.
type phaseSummary struct {
	Name          string  `json:"name"`
	Seconds       float64 `json:"seconds"`
	Offered       int     `json:"offered"`
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	TxSamples     int     `json:"tx_samples"`
	QuerySamples  int     `json:"query_samples"`
	Invalid       int     `json:"mvcc_invalid"`
	Retries       int     `json:"retries"`
	Backlog       int     `json:"backlog_end"`
	AchievedRatio float64 `json:"achieved_ratio"`
	LagP95Ms      float64 `json:"lag_p95_ms"`
	TxP50Ms       float64 `json:"tx_p50_ms"`
	TxP95Ms       float64 `json:"tx_p95_ms"`
	QueryP50Ms    float64 `json:"query_p50_ms"`
}

func summarize(p *phaseResult) phaseSummary {
	s := phaseSummary{
		Name: p.name, Seconds: p.wall.Seconds(), Offered: p.offered, Attempted: p.attempted, Failed: p.failed,
		TxSamples: len(p.txMs), QuerySamples: len(p.queryMs), Invalid: p.invalid, Retries: p.retries, Backlog: p.backlog,
		LagP95Ms: quantile(p.lagMs, 0.95), TxP50Ms: quantile(p.txMs, 0.5), TxP95Ms: quantile(p.txMs, 0.95),
		QueryP50Ms: quantile(p.queryMs, 0.5),
	}
	if p.offered > 0 {
		s.AchievedRatio = float64(p.attempted-p.failed) / float64(p.offered)
	}
	return s
}

// stageRow is one line of the stage table.
type stageRow struct {
	Stage string  `json:"stage"`
	P50Us float64 `json:"p50_us"`
	Share float64 `json:"share_of_whole"`
}

// runResult is one workload run: the contract's result line plus what a
// reader needs to trust it.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Saturated bool                   `json:"saturated,omitempty"`
	Steal     []float64              `json:"steal_ratio"` // per repetition: CPU time the hypervisor gave to other guests
	Metrics   map[string]metricValue `json:"metrics"`
	Absent    []string               `json:"absent,omitempty"`
	Gate      []string               `json:"gate_violations,omitempty"`
	Failures  []string               `json:"failures,omitempty"` // the first few failed operations
	Phases    []phaseSummary         `json:"phases"`
	Stages    []stageRow             `json:"stages,omitempty"`
	StageNote string                 `json:"stage_note,omitempty"`
}

// runWorkload measures one workload for seconds: the end-to-end metrics
// when traced is false, the per-layer ones from the traced pass and the
// layer replay when it is true.
//
// An end-to-end run is setupRepeats independent repetitions — build a
// fresh system, pre-seed, warm up, then idle, loaded and sat on a third of
// the window each, then the correctness gate — and every metric is the
// median of the repetitions. The host's noise arrives in bursts of
// seconds and a system slows as its chain and heap grow, so three short
// lives with a median are steadier than one long one, and setup_s comes
// out of the same loop.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, outDir string) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Traced: traced, Metrics: make(map[string]metricValue)}
	gen := newGenerator(w, seed)
	nclients := min(runtime.NumCPU(), maxGateways)
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d-%s", os.Getpid(), w.name))
	defer os.RemoveAll(runDir)
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	window := time.Duration(seconds * float64(time.Second) / float64(repeats))
	part := func(share float64) time.Duration { return time.Duration(float64(window) * share) }

	values := make(map[string][]float64) // end-to-end metric → one value per repetition
	for k := 0; k < repeats; k++ {
		hostTotal, hostSteal := hostCPU()
		committed, failed := 0, 0 // commit statuses observed and operations failed on this system
		note := func(p *phaseResult) phaseSummary {
			res.Attempted += p.attempted
			res.Failed += p.failed
			failed += p.failed
			res.Failures = append(res.Failures, p.failures...)
			committed += p.committed
			sum := summarize(p)
			res.Phases = append(res.Phases, sum)
			return sum
		}
		// Each repetition draws its own streams.
		phase := func(id int) int { return id + k*phaseCount }
		satOps := func(i int) op { return gen.op(phase(phaseSat), i) }

		t0 := time.Now()
		sys, err := buildSystem(w, seed, filepath.Join(runDir, fmt.Sprintf("sys%d", k)), nclients, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", w.name, err)
		}
		d := newDriver(sys, gen)
		note(d.closedLoop("seed", 0, w.preseed, gen.seedOp))
		note(d.openLoop("warmup", phase(phaseWarm), w.rate, warmupTime, false))
		setup := time.Since(t0).Seconds()
		runtime.GC()

		if !traced {
			idle := d.openLoop("idle", phase(phaseIdle), idleRate, part(untracedShares.idle), false)
			loaded := d.openLoop("loaded", phase(phaseLoaded), w.rate, part(untracedShares.loaded), false)
			sat := d.closedLoop("sat", part(untracedShares.sat), 0, satOps)
			note(idle)
			// note first: || would skip it, and its commits, once a
			// repetition has been flagged.
			if note(loaded).AchievedRatio < 0.95 {
				res.Saturated = true
			}
			note(sat)
			for name, v := range map[string]float64{
				"idle_p50_ms":   quantile(idle.txMs, 0.5),
				"commit_p50_ms": quantile(loaded.txMs, 0.5),
				"query_p50_ms":  quantile(loaded.queryMs, 0.5),
				"sat_tps":       float64(sat.committedInWindow) / sat.wall.Seconds(),
				"setup_s":       setup,
			} {
				values[name] = append(values[name], v)
			}
		} else {
			layer, err := tracedPhases(res, d, part, satOps, note, outDir)
			if err != nil {
				sys.close()
				return nil, err
			}
			for _, def := range perLayer {
				v, ok := layer[def.name]
				if !ok {
					res.Absent = append(res.Absent, def.name)
				}
				res.Metrics[def.name] = metricValue{v, def.unit}
			}
		}
		res.Steal = append(res.Steal, stealSince(hostTotal, hostSteal))
		res.Gate = append(res.Gate, gate(sys, d, committed, failed)...)
		sys.close()
	}
	for _, def := range endToEnd {
		if v, ok := values[def.name]; ok {
			res.Metrics[def.name] = metricValue{median(undisturbed(v, res.Steal)), def.unit}
		}
	}
	res.Correct = len(res.Gate) == 0
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	if !res.Correct {
		res.FailRatio = 1
	}
	return res, nil
}

// undisturbed keeps the repetitions during which the hypervisor took at
// most maxSteal of the machine's CPU time for other guests: on a shared
// host a neighbour's burst slows a repetition five- to twentyfold, which
// says nothing about the program. When it disturbed all of them, all count.
func undisturbed(v, steal []float64) []float64 {
	var out []float64
	for i, x := range v {
		if steal[i] <= maxSteal {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return v
	}
	return out
}

// tracedPhases runs the per-layer half of a workload: a short untraced
// loaded phase (generator validity, client tail, the overhead baseline),
// the traced pass on the loaded schedule, a sat phase whose counters and
// blocks are taken at the boundaries, and the layer replay.
func tracedPhases(res *runResult, d *driver, part func(float64) time.Duration,
	satOps func(int) op, note func(*phaseResult) phaseSummary, outDir string) (map[string]float64, error) {
	sys, w := d.sys, d.sys.w
	m := make(map[string]float64)

	loaded := d.openLoop("loaded", phaseLoaded, w.rate, part(tracedShares.loaded), false)
	ls := note(loaded)
	res.Saturated = ls.AchievedRatio < 0.95
	m["gen.lag_p95_ms"] = ls.LagP95Ms
	m["gen.achieved_ratio"] = ls.AchievedRatio
	m["gen.backlog_end"] = float64(ls.Backlog)
	m["client.commit_p95_ms"] = quantile(loaded.txMs, 0.95)
	m["client.commit_p99_ms"] = quantile(loaded.txMs, 0.99)

	sys.obs.setTracing(true)
	origin := time.Now()
	tracedRes := d.openLoop("traced", phaseTraced, w.rate, part(tracedShares.traced), true)
	sys.obs.setTracing(false)
	note(tracedRes)
	stageMetrics(res, m, w, tracedRes, quantile(loaded.txMs, 0.5))
	var spans []span
	for _, tr := range tracedRes.traces {
		spans = append(spans, tr.spans(origin)...)
	}
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".json"), spans); err != nil {
		return nil, err
	}

	// sat: counters, process and disk use are deltas across the phase.
	runtime.GC()
	c0, p0, disk0 := sys.counters(), sampleProc(), dirBytes(sys.storageDir())
	b0, tx0 := sys.obs.mark()
	sat := d.closedLoop("sat", part(tracedShares.sat), 0, satOps)
	note(sat)
	// The benchmark's own block stream trails the commit statuses a little.
	waitFor(2*time.Second, func() bool { _, txs := sys.obs.mark(); return txs-tx0 >= sat.committed })
	c1, p1, disk1 := sys.counters(), sampleProc(), dirBytes(sys.storageDir())
	b1, tx1 := sys.obs.mark()
	txs := float64(sat.committed)
	if txs == 0 {
		return nil, fmt.Errorf("%s: sat phase committed nothing", w.name)
	}
	delta := func(name string) (float64, bool) {
		v1, ok := c1[name]
		return v1 - c0[name], ok
	}
	ratio := func(metric, num, den string) {
		n, okN := delta(num)
		dn, okD := delta(den)
		if okN && okD && dn > 0 {
			m[metric] = n / dn
		}
	}
	m["client.invalid_ratio"] = float64(sat.invalid) / txs
	m["client.retries_per_tx"] = float64(sat.retries) / txs
	if b1 > b0 {
		m["orderer.block_txs_mean"] = float64(tx1-tx0) / float64(b1-b0)
	}
	ratio("orderer.rounds_per_tx", "orderer_consensus_rounds", "tx_ordered")
	ratio("orderer.flushes_per_tx", "gateway_flushes", "tx_ordered")
	ratio("orderer.flushes_elided_ratio", "orderer_flushes_elided", "gateway_flushes")
	if hits, ok := delta("verify_cache_hits"); ok {
		if misses, _ := delta("verify_cache_misses"); hits+misses > 0 {
			m["validator.verify_cache_hit_ratio"] = hits / (hits + misses)
		}
	}
	if w.pdc {
		pvtWrites := 0.0
		for i, n := 0, sat.attempted; i < n; i++ {
			if o := satOps(i); !o.query && o.fn != "readPrivate" {
				pvtWrites++
			}
		}
		if pushes, ok := delta("gossip_pushes"); ok && pvtWrites > 0 {
			m["gossip.pushes_per_pvt_tx"] = pushes / pvtWrites
		}
	}
	if w.wire {
		if calls, ok := delta("wire_rpc_calls"); ok {
			bytes, _ := delta("wire_rpc_bytes")
			m["wire.rpcs_per_tx"] = calls / txs
			m["wire.bytes_per_tx"] = bytes / txs
		}
		m["storage.disk_bytes_per_tx"] = float64(disk1-disk0) / txs
		if sat.userBytes > 0 {
			m["storage.disk_bytes_per_user_byte"] = float64(disk1-disk0) / float64(sat.userBytes)
		}
	}
	m["proc.cpu_ms_per_tx"] = ms(p1.cpu-p0.cpu) / txs
	m["proc.alloc_kib_per_tx"] = float64(p1.allocBytes-p0.allocBytes) / 1024 / txs
	m["proc.rss_peak_mib"] = float64(p1.rssPeakKiB) / 1024
	m["proc.gc_pause_ms"] = ms(p1.gcPause - p0.gcPause)

	replayed, err := sys.replay(b0, b1, replayMaxTxs)
	if err != nil {
		return nil, fmt.Errorf("%s: layer replay: %w", w.name, err)
	}
	for k, v := range replayed {
		m[k] = v
	}
	return m, nil
}

func waitFor(limit time.Duration, cond func() bool) bool {
	for end := time.Now().Add(limit); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// stageMetrics turns the traced pass into the stage table and the span
// metrics. wholeUntraced is the same run's untraced commit p50.
func stageMetrics(res *runResult, m map[string]float64, w *workload, p *phaseResult, wholeUntraced float64) {
	var (
		stage                                     [nStamps - 1][]float64
		whole, self, endorse, straggler, evaluate []float64
		clamped, txs                              int
	)
	for _, tr := range p.traces {
		if tr.query {
			for _, c := range tr.calls {
				if c.name == "endorser.evaluate" {
					evaluate = append(evaluate, us(c.end.Sub(c.start)))
				}
			}
			continue
		}
		txs++
		d, cl := tr.stages()
		clamped += cl
		for i := range d {
			stage[i] = append(stage[i], us(d[i]))
		}
		whole = append(whole, us(tr.stamps[stNotified].Sub(tr.stamps[stDue])))
		var ends []float64
		var order time.Duration
		for _, c := range tr.calls {
			switch c.name {
			case "endorser.endorse":
				ends = append(ends, us(c.end.Sub(c.start)))
			case "orderer.order.call":
				order = c.end.Sub(c.start)
			}
		}
		if len(ends) > 0 {
			sort.Float64s(ends)
			endorse = append(endorse, ends...)
			slowest := ends[len(ends)-1]
			straggler = append(straggler, slowest-ends[(len(ends)-1)/2])
			self = append(self, us(tr.stamps[stOrdered].Sub(tr.stamps[stSent]))-slowest-us(order))
		}
	}
	p50 := func(v []float64) float64 { sort.Float64s(v); return quantile(v, 0.5) }
	wholeP50 := p50(whole)
	names := stageNames
	if w.wire {
		// The client process sees one RPC where the gateway proposes,
		// endorses and orders; the table says so instead of inventing parts.
		names[stOrdered-1] = "gateway.submit_rpc"
		res.StageNote = "over the wire gateway.propose, gateway.endorse and orderer.order happen inside the gateway process: gateway.submit_rpc covers them"
	}
	sum := 0.0
	for i, name := range names {
		v := p50(stage[i])
		sum += v
		if w.wire && (i == stProposed-1 || i == stEndorsed-1) {
			continue
		}
		row := stageRow{Stage: name, P50Us: v}
		if wholeP50 > 0 {
			row.Share = v / wholeP50
		}
		res.Stages = append(res.Stages, row)
		switch name {
		case "gen.lag":
		case "gateway.submit_rpc":
			m["gateway.submit_rpc_p50_us"] = v
		default:
			m[name+"_p50_us"] = v
		}
	}
	if !w.wire {
		m["gateway.self_p50_us"] = p50(self)
		m["endorser.endorse_p50_us"] = p50(endorse)
		m["endorser.straggler_p50_us"] = p50(straggler)
		m["endorser.evaluate_p50_us"] = p50(evaluate)
	}
	if wholeP50 > 0 {
		m["trace.sum_over_e2e"] = sum / wholeP50
	}
	if txs > 0 {
		m["trace.clamped_ratio"] = float64(clamped) / float64(txs*(nStamps-1))
	}
	if wholeUntraced > 0 {
		m["trace.overhead_ratio"] = wholeP50 / 1e3 / wholeUntraced
	}
	if s := m["trace.sum_over_e2e"]; s < 0.9 || s > 1.1 {
		res.StageNote = strings.TrimPrefix(res.StageNote+fmt.Sprintf("; stage p50s sum to %.2f of the whole p50: the stages' distributions are skewed, so their medians do not add", s), "; ")
	}
}

// gate is the correctness check after every workload. It returns the
// violations; none means the run's outputs are correct.
func gate(sys *system, d *driver, committed, failed int) []string {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var bad []string

	// All peers at equal height (they converge once delivery drains).
	var states []peerState
	var err error
	equal := waitFor(10*time.Second, func() bool {
		states, err = sys.peerStates(ctx)
		if err != nil {
			return true
		}
		for _, s := range states {
			if s.height != states[0].height {
				return false
			}
		}
		return true
	})
	if err != nil {
		return []string{"peer states: " + err.Error()}
	}
	if !equal {
		bad = append(bad, fmt.Sprintf("peers did not reach equal height: %+v", states))
	}

	// Chain intact, and it holds exactly the transactions whose commit
	// status was observed (failed ones may or may not have been ordered).
	chainTxs, err := sys.verifyChain(ctx, states[0].height)
	if err != nil {
		bad = append(bad, "verify chain: "+err.Error())
	} else if chainTxs < committed || chainTxs > committed+failed {
		bad = append(bad, fmt.Sprintf("chain holds %d transactions, %d commit statuses observed (%d failed)", chainTxs, committed, failed))
	}

	// State hashes byte-identical across peers that should agree: all of
	// them on public data, the collection members in pdc_mixed.
	var ref string
	for _, s := range states {
		if sys.w.pdc && s.org == orgs[2] {
			continue
		}
		if ref == "" {
			ref = s.stateHash
		}
		if s.stateHash != ref {
			bad = append(bad, fmt.Sprintf("state hash of %s differs", s.name))
		}
	}

	// Sampled keys read back the last acknowledged value; in pdc_mixed the
	// non-member holds their hashes and no private value.
	readFn := "get"
	if sys.w.pdc {
		readFn = "readPrivate"
	}
	for _, key := range d.track.sample(sampleKeys) {
		o := op{query: true, fn: readFn, key: key, args: []string{key}}
		out, err := sys.clients[0].evaluate(ctx, &o, nil)
		if err != nil {
			bad = append(bad, fmt.Sprintf("read back %s: %v", key, err))
		} else if !d.track.matches(key, out) {
			bad = append(bad, fmt.Sprintf("key %s does not hold its last acknowledged value", key))
		}
		if sys.w.pdc {
			if hasHash, hasValue := sys.nonMemberView(key); !hasHash || hasValue {
				bad = append(bad, fmt.Sprintf("non-member peer: key %s hash present=%v, private value present=%v", key, hasHash, hasValue))
			}
		}
	}
	return bad
}
