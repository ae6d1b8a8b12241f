package main

import "time"

// The load model's constants. They are frozen: rates were calibrated
// once against the seed commit on a 2-core box (README.md, "Calibration")
// and are never derived at run time, so two commits always receive the
// same offered load.
const (
	inflightMax  = 16 // worker pool bound of every phase; the closed loop keeps exactly this many in flight
	maxGateways  = 4  // G = min(nproc, maxGateways) client connections
	idleRate     = 40 // ops/s in the idle phase: almost never two transactions in flight, so one per block
	opTimeout    = 10 * time.Second
	maxRetries   = 8                    // endorsement-mismatch / overload retries before an operation counts as failed
	retryBackoff = 2 * time.Millisecond // × the attempt number
	warmupTime   = time.Second
	sampleKeys   = 64   // keys read back by the correctness gate
	replayMaxTxs = 1000 // transactions of sat's blocks the layer replay times
	setupRepeats = 3    // repetitions of an end-to-end run; every metric is their median
	maxSteal     = 0.01 // a repetition that lost more of the machine's CPU time to other guests is left out of the median
	batchSize    = 32   // orderer BatchSize; no batch timeout (the shipped default)
	defaultSecs  = 24   // BENCHMARK.json run_seconds
	smokeSeconds = 6    // -smoke: about a second per phase
	chaincodeID  = "asset"
	collectionID = "pdc1"
)

// Phase shares of the measured window (--seconds). An untraced run
// spends a third of it on each of setupRepeats repetitions, split into
// idle, loaded and sat; a traced run spends all of it on one system: a
// short untraced loaded phase (the overhead baseline), the traced pass and
// a sat phase whose blocks feed the layer replay.
var (
	untracedShares = phaseShares{idle: 0.30, loaded: 0.40, sat: 0.30}
	tracedShares   = phaseShares{loaded: 0.25, traced: 0.40, sat: 0.35}
)

type phaseShares struct{ idle, loaded, traced, sat float64 }

// Phase ids feed the op generator, so every phase draws its own stream.
const (
	phaseSeed = iota
	phaseWarm
	phaseIdle
	phaseLoaded
	phaseTraced
	phaseSat
	phaseCount
)

// mixEntry is one operation kind of a workload with its share of the
// stream.
type mixEntry struct {
	fn    string
	query bool // Evaluate, not a transaction
	share float64
}

// workload is one named input set.
type workload struct {
	name string
	// wire runs five OS processes on loopback with the durable backend
	// (fsync on); otherwise everything is in-process on the memory backend.
	wire bool
	pdc  bool
	// rate is the loaded phase's offered ops/s.
	rate float64
	// keys is the key space; the first preseed of them are written during
	// set-up and reads ask for those only, so every read finds a value.
	// Set-up is the one part of a run whose length is work, not time: it is
	// kept short so that a run on a slowed host still ends in time. unique
	// makes writes target fresh keys.
	keys, preseed int
	unique        bool
	zipf          bool
	valueBytes    int
	mix           []mixEntry
}

var publicMix = []mixEntry{{"set", false, 0.90}, {"get", true, 0.10}}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
var workloads = []*workload{
	{
		name: "pub_small",
		rate: 200, keys: 1024, preseed: 256, zipf: true, valueBytes: 8, mix: publicMix,
	},
	{
		name: "pdc_mixed",
		pdc:  true,
		rate: 250, keys: 4096, preseed: 1024,
		mix: []mixEntry{
			{"setPrivate", false, 0.50},
			{"addPrivate", false, 0.20},
			{"readPrivate", false, 0.10},
			{"readPrivate", true, 0.20},
		},
	},
	{
		name: "pub_large",
		rate: 60, keys: 64, preseed: 64, unique: true, valueBytes: 16 << 10, mix: publicMix,
	},
	{
		name: "wire_durable",
		wire: true,
		rate: 110, keys: 1024, preseed: 256, zipf: true, valueBytes: 8, mix: publicMix,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef declares one emitted metric.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
// fail_ratio is not among them: it is 0 on every healthy run and the
// result line carries failed/attempted instead.
var endToEnd = []metricDef{
	{"idle_p50_ms", "ms"},
	{"commit_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"sat_tps", "tx/s"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics. A layer that does no work in a
// workload (gossip outside pdc_mixed, wire and storage in-process, the
// stages hidden behind the gateway RPC over the wire, counters no RPC
// exposes) reports 0 and is named in the result's "absent" list.
var perLayer = []metricDef{
	{"gen.lag_p95_ms", "ms"},
	{"gen.achieved_ratio", "ratio"},
	{"gen.backlog_end", "count"},
	{"client.commit_p95_ms", "ms"},
	{"client.commit_p99_ms", "ms"},
	{"client.invalid_ratio", "ratio"},
	{"client.retries_per_tx", "ratio"},
	{"gateway.propose_p50_us", "us"},
	{"gateway.endorse_p50_us", "us"},
	{"gateway.self_p50_us", "us"},
	{"gateway.submit_rpc_p50_us", "us"},
	{"endorser.endorse_p50_us", "us"},
	{"endorser.straggler_p50_us", "us"},
	{"endorser.evaluate_p50_us", "us"},
	{"gossip.disseminate_p50_us", "us"},
	{"gossip.pushes_per_pvt_tx", "ratio"},
	{"orderer.order_p50_us", "us"},
	{"orderer.cut_wait_p50_us", "us"},
	{"orderer.block_txs_mean", "count"},
	{"orderer.rounds_per_tx", "ratio"},
	{"orderer.flushes_per_tx", "ratio"},
	{"orderer.flushes_elided_ratio", "ratio"},
	{"peer.commit_p50_us", "us"},
	{"deliver.notify_p50_us", "us"},
	{"validator.validate_us_per_tx", "us"},
	{"validator.verify_cache_hit_ratio", "ratio"},
	{"peer.commit_us_per_tx", "us"},
	{"peer.apply_us_per_tx", "us"},
	{"statedb.apply_us_per_write", "us"},
	{"statedb.get_versions_us_per_key", "us"},
	{"ledger.tx_encode_us", "us"},
	{"ledger.tx_decode_us", "us"},
	{"ledger.block_hash_us", "us"},
	{"ledger.tx_bytes", "B"},
	{"storage.append_us_per_block", "us"},
	{"storage.state_batch_us_per_block", "us"},
	{"storage.disk_bytes_per_tx", "B"},
	{"storage.disk_bytes_per_user_byte", "ratio"},
	{"wire.bytes_per_tx", "B"},
	{"wire.rpcs_per_tx", "ratio"},
	{"proc.cpu_ms_per_tx", "ms"},
	{"proc.alloc_kib_per_tx", "KiB"},
	{"proc.rss_peak_mib", "MiB"},
	{"proc.gc_pause_ms", "ms"},
	{"trace.sum_over_e2e", "ratio"},
	{"trace.clamped_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}
