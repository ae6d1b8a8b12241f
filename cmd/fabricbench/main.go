// Command fabricbench regenerates Fig. 11 of the paper: per-transaction
// execution (endorsement) latency and validation latency for read, write
// and delete transactions, under the original framework and under the
// framework with the defense features enabled.
//
// Beyond the paper, -pipeline measures the parallel block validation
// pipeline (docs/VALIDATION.md): commit throughput at several worker
// counts plus the per-phase latency histograms. -reconcile runs the
// anti-entropy reconciliation scenario (docs/PROTOCOL.md): dissemination
// to one member peer is dropped for a batch of private writes, the
// network heals, and the tick-driven reconciler recovers the member's
// private store, reporting attempts, failures and per-attempt latency.
// -deliver drives concurrent Gateway clients through the push-notified
// commit flow (endorse, order, wait for the commit-status event on the
// peer's deliver stream) and reports the submit→commit-notified latency
// distribution. -statedb runs the world-state micro-scenario
// (docs/STATEDB.md) — range scans, batched MVCC version reads, snapshot
// take/read cost, and scan latency under a concurrent writer — and with
// -json writes the result to BENCH_statedb.json as a committed baseline.
// -storage compares the storage backends (docs/STORAGE.md): raw
// state-log append cost with and without fsync, compaction and
// recovery-replay cost, and end-to-end throughput with every peer on
// each backend; -json writes BENCH_storage.json. -load runs the
// closed-loop load-generation scenario (docs/LOAD.md): a fleet of
// paced Gateway clients sweeps the aggregate arrival rate across three
// workload mixes (Zipfian hotspot, MVCC-conflict-heavy, large values)
// until the commit pipeline's knee, then demonstrates the overload and
// duplicate machinery (admission shedding, abandoned-handle cleanup,
// dedup-cache rejections); -json writes BENCH_e2e.json. -wire compares
// the in-process baseline against the same burst submitted through the
// TCP wire protocol to a cluster of separate OS processes (this binary
// re-executed per role, docs/WIRE.md), optionally adding TLS
// (-wire-tls) and 16 KiB-value (-wire-large) cells; -json writes
// BENCH_wire.json. -snapshot compares the two cold-join paths
// (docs/SNAPSHOT.md): genesis replay of the full chain plus private
// data reconciliation against snapshot export+install at the source's
// commit point, verifying both joiners end byte-identical to the
// source; -snapshot-gate fails the run below a required speedup and
// -json writes BENCH_snapshot.json.
//
// Usage:
//
//	fabricbench                 # 100 runs per cell, as in the paper
//	fabricbench -runs 500
//	fabricbench -workers 8      # validation worker pool for all runs
//	fabricbench -pipeline       # 1/2/GOMAXPROCS worker comparison
//	fabricbench -reconcile      # anti-entropy convergence scenario
//	fabricbench -deliver        # commit-notification latency scenario
//	fabricbench -statedb -json  # world-state scenario + JSON baseline
//	fabricbench -storage -json  # storage-backend scenario + JSON baseline
//	fabricbench -load -json     # closed-loop rate sweep + JSON baseline
//	fabricbench -wire -json     # in-process vs multi-process wire latency
//	fabricbench -snapshot -json # snapshot cold join vs genesis replay
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/node"
	"repro/internal/perf"
)

func main() {
	// The -wire scenario launches this binary as the cluster's role
	// processes; a child carries its role in the environment.
	if handled, err := node.RunRoleFromEnv(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "fabricbench role:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fabricbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fabricbench", flag.ContinueOnError)
	runs := fs.Int("runs", 100, "measurement runs per (framework, phase, tx) cell")
	verbose := fs.Bool("v", false, "print min/median/max for every cell")
	throughput := fs.Bool("throughput", false, "also measure end-to-end throughput")
	clients := fs.Int("clients", 4, "concurrent clients for -throughput")
	txs := fs.Int("txs", 200, "transactions for -throughput")
	workers := fs.Int("workers", 0, "validation worker pool size (0 = GOMAXPROCS)")
	pipeline := fs.Bool("pipeline", false, "measure block validation pipeline throughput at 1/2/GOMAXPROCS workers")
	pipelineBlocks := fs.Int("pipeline-blocks", 4, "blocks per worker setting for -pipeline")
	pipelineTxs := fs.Int("pipeline-txs", 32, "transactions per block for -pipeline")
	reconcileFlag := fs.Bool("reconcile", false, "run the anti-entropy reconciliation scenario (drop, commit, heal, tick to convergence)")
	reconcileTxs := fs.Int("reconcile-txs", 16, "private transactions missed by the isolated member for -reconcile")
	reconcileIsolated := fs.Int("reconcile-isolated-ticks", 3, "failing reconciler ticks before the heal for -reconcile")
	deliverFlag := fs.Bool("deliver", false, "measure submit→commit-notified latency through the Gateway + deliver stream")
	deliverClients := fs.Int("deliver-clients", 4, "concurrent Gateway clients for -deliver")
	deliverTxs := fs.Int("deliver-txs", 200, "transactions for -deliver")
	statedbFlag := fs.Bool("statedb", false, "run the world-state micro-scenario (range scans, batched MVCC reads, snapshots, contended scans)")
	statedbKeys := fs.Int("statedb-keys", 10000, "keys per namespace for -statedb")
	orderFlag := fs.Bool("order", false, "run the ordering-throughput grid (batch sizes 1/10/100 x 1/4/16 submitters) plus the raft ProposeBatch comparison")
	orderTxs := fs.Int("order-txs", 2000, "transactions per grid cell for -order")
	loadFlag := fs.Bool("load", false, "run the closed-loop load scenario (arrival-rate sweep per workload mix to the knee, plus the overload/duplicate machinery demo)")
	loadClients := fs.Int("load-clients", 8, "simulated Gateway clients for -load")
	loadTxs := fs.Int("load-txs", 40, "scheduled transactions per client per sweep point for -load")
	loadBatch := fs.Int("load-batch", 32, "orderer batch size for -load")
	loadRates := fs.String("load-rates", "100,200,400,800,1600", "comma-separated aggregate arrival rates (tx/s) for the -load sweep")
	storageFlag := fs.Bool("storage", false, "run the storage-backend scenario (append/compact/recover cost and end-to-end TPS per backend)")
	storageBatches := fs.Int("storage-batches", 400, "state batches for the -storage raw-append stage")
	storageRecords := fs.Int("storage-records", 32, "records per batch for -storage")
	storageTxs := fs.Int("storage-txs", 96, "end-to-end transactions per backend for -storage (0 skips the throughput stage)")
	snapshotFlag := fs.Bool("snapshot", false, "compare cold-join paths: snapshot export+install vs genesis replay of the full chain")
	snapshotBlocks := fs.Int("snapshot-blocks", 10000, "public blocks in the chain for -snapshot")
	snapshotTxs := fs.Int("snapshot-txs", 1, "transactions per block for -snapshot")
	snapshotSeeded := fs.Int("snapshot-seeded", 16, "seeded private keys for -snapshot")
	snapshotGate := fs.Float64("snapshot-gate", 0, "with -snapshot, fail if the measured speedup is below this (0 disables)")
	wireFlag := fs.Bool("wire", false, "compare in-process vs multi-process wire-protocol submit→commit latency")
	wireClients := fs.Int("wire-clients", 4, "concurrent clients for -wire")
	wireTxs := fs.Int("wire-txs", 50, "transactions per client for -wire")
	wireBatch := fs.Int("wire-batch", 8, "orderer batch size for -wire")
	wireTLS := fs.Bool("wire-tls", false, "add a TLS cell to -wire")
	wireLarge := fs.Bool("wire-large", false, "add a 16 KiB-value cell to -wire")
	jsonFlag := fs.Bool("json", false, "with -statedb, -order, -storage, -snapshot or -wire, write the result to -json-out as a committed baseline")
	jsonOut := fs.String("json-out", "", "output path for -json (default BENCH_statedb.json / BENCH_order.json / BENCH_storage.json / BENCH_snapshot.json / BENCH_wire.json; \"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	writeJSON := func(out []byte, defaultPath string) error {
		path := *jsonOut
		if path == "" {
			path = defaultPath
		}
		if path == "-" {
			fmt.Print(string(out))
			return nil
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", path)
		return nil
	}

	if *wireFlag {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		fmt.Printf("Measuring wire-protocol deployment (%d clients x %d tx, batch %d, tls=%v, large=%v)...\n\n",
			*wireClients, *wireTxs, *wireBatch, *wireTLS, *wireLarge)
		r, err := perf.MeasureWire(self, perf.WireOptions{
			Clients:     *wireClients,
			TxPerClient: *wireTxs,
			BatchSize:   *wireBatch,
			TLS:         *wireTLS,
			Large:       *wireLarge,
		})
		if err != nil {
			return err
		}
		fmt.Print(perf.RenderWire(r))
		if *jsonFlag {
			out, err := perf.WireJSON(r)
			if err != nil {
				return err
			}
			if err := writeJSON(out, "BENCH_wire.json"); err != nil {
				return err
			}
		}
		// The wire scenario builds its own processes; skip the Fig. 11 run.
		return nil
	}

	if *snapshotFlag {
		fmt.Printf("Measuring cold join: snapshot vs genesis replay (%d blocks x %d txs, %d seeded private keys)...\n\n",
			*snapshotBlocks, *snapshotTxs, *snapshotSeeded)
		r, err := perf.MeasureSnapshot(*snapshotBlocks, *snapshotTxs, *snapshotSeeded)
		if err != nil {
			return err
		}
		fmt.Print(perf.RenderSnapshot(r))
		if *jsonFlag {
			out, err := perf.SnapshotJSON(r)
			if err != nil {
				return err
			}
			if err := writeJSON(out, "BENCH_snapshot.json"); err != nil {
				return err
			}
		}
		if *snapshotGate > 0 && r.Speedup < *snapshotGate {
			return fmt.Errorf("snapshot gate: speedup %.1fx below required %.1fx", r.Speedup, *snapshotGate)
		}
		// The snapshot scenario builds its own network; skip the Fig. 11 run.
		return nil
	}

	if *loadFlag {
		var rates []float64
		for _, f := range strings.Split(*loadRates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r <= 0 {
				return fmt.Errorf("-load-rates: bad rate %q", f)
			}
			rates = append(rates, r)
		}
		fmt.Printf("Measuring closed-loop load (%d clients, %d tx/client/point, rates %s tx/s)...\n\n",
			*loadClients, *loadTxs, *loadRates)
		r, err := loadgen.MeasureE2E(loadgen.Config{
			Clients:   *loadClients,
			BatchSize: *loadBatch,
		}, *loadTxs, rates)
		if err != nil {
			return err
		}
		fmt.Print(loadgen.Render(r))
		if *jsonFlag {
			out, err := loadgen.E2EJSON(r)
			if err != nil {
				return err
			}
			if err := writeJSON(out, "BENCH_e2e.json"); err != nil {
				return err
			}
		}
		// The load scenario builds its own networks; skip the Fig. 11 run.
		return nil
	}

	if *orderFlag {
		fmt.Printf("Measuring pipelined ordering service (%d txs per cell)...\n\n", *orderTxs)
		r := perf.MeasureOrder(*orderTxs)
		fmt.Print(perf.RenderOrder(r))
		if *jsonFlag {
			out, err := perf.OrderJSON(r)
			if err != nil {
				return err
			}
			if err := writeJSON(out, "BENCH_order.json"); err != nil {
				return err
			}
		}
		// The ordering scenario needs no network; skip the Fig. 11 run.
		return nil
	}

	if *storageFlag {
		fmt.Printf("Measuring storage backends (%d batches x %d records, %d e2e txs per backend)...\n\n",
			*storageBatches, *storageRecords, *storageTxs)
		r, err := perf.MeasureStorage(*storageBatches, *storageRecords, *clients, *storageTxs)
		if err != nil {
			return err
		}
		fmt.Print(perf.RenderStorage(r))
		if *jsonFlag {
			out, err := perf.StorageJSON(r)
			if err != nil {
				return err
			}
			if err := writeJSON(out, "BENCH_storage.json"); err != nil {
				return err
			}
		}
		// The storage scenario builds its own networks; skip the Fig. 11 run.
		return nil
	}

	if *statedbFlag {
		fmt.Printf("Measuring world state database (%d keys/namespace)...\n\n", *statedbKeys)
		r := perf.MeasureStateDB(*statedbKeys)
		fmt.Print(perf.RenderStateDB(r))
		if *jsonFlag {
			out, err := perf.StateDBJSON(r)
			if err != nil {
				return err
			}
			if err := writeJSON(out, "BENCH_statedb.json"); err != nil {
				return err
			}
		}
		// A store micro-scenario needs no network; skip the Fig. 11 run.
		return nil
	}

	if *deliverFlag {
		fmt.Printf("Measuring commit notification via deliver stream (%d clients, %d txs)...\n",
			*deliverClients, *deliverTxs)
		var results []perf.DeliverResult
		for _, v := range []struct {
			name string
			sec  core.SecurityConfig
		}{
			{"original", core.OriginalFabric()},
			{"defended", core.DefendedFabric()},
		} {
			v.sec.ValidationWorkers = *workers
			r, err := perf.MeasureDeliver(v.sec, v.name, *deliverClients, *deliverTxs)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		fmt.Println()
		fmt.Print(perf.RenderDeliver(results))
		fmt.Println()
	}

	if *reconcileFlag {
		fmt.Printf("Measuring anti-entropy reconciliation (%d missed txs, %d isolated ticks)...\n",
			*reconcileTxs, *reconcileIsolated)
		sec := core.OriginalFabric()
		sec.ValidationWorkers = *workers
		r, err := perf.MeasureReconcile(sec, *reconcileTxs, *reconcileIsolated, 1000)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(perf.RenderReconcile(r))
		fmt.Println()
	}

	if *pipeline {
		counts := []int{1, 2}
		if mp := runtime.GOMAXPROCS(0); mp > 2 {
			counts = append(counts, mp)
		}
		fmt.Printf("Measuring block validation pipeline (%d blocks x %d txs per worker setting)...\n",
			*pipelineBlocks, *pipelineTxs)
		sec := core.OriginalFabric()
		sec.ValidationWorkers = *workers
		results, err := perf.MeasureBlockValidation(sec, counts, *pipelineBlocks, *pipelineTxs)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(perf.RenderBlockValidation(results))
		fmt.Println()

		// The phase histograms accumulate across all settings of the
		// run; render them once for the latency breakdown.
		h, err := perf.NewHarness(sec, 0)
		if err != nil {
			return err
		}
		phaseTxs, err := h.EndorseTxs(0, *pipelineTxs)
		if err != nil {
			return err
		}
		if err := h.CommitBlock(h.BuildBlock(phaseTxs)); err != nil {
			return err
		}
		fmt.Print(perf.RenderTimings(h.TargetTimings()))
		fmt.Println()
	}

	if *throughput {
		var results []perf.ThroughputResult
		for _, v := range []struct {
			name string
			sec  core.SecurityConfig
		}{
			{"original", core.OriginalFabric()},
			{"defended", core.DefendedFabric()},
		} {
			v.sec.ValidationWorkers = *workers
			r, err := perf.MeasureThroughput(v.sec, v.name, *clients, *txs)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		fmt.Print(perf.RenderThroughput(results))
		fmt.Println()
	}

	fmt.Printf("Measuring execution and validation latency (%d runs per cell)...\n", *runs)
	results, err := perf.RunFig11(*runs)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(perf.Render(results))

	if *verbose {
		fmt.Println("\nDetailed samples:")
		for _, r := range results {
			fmt.Printf("%-10s %-11s %-8s mean=%-12s median=%-12s min=%-12s max=%s\n",
				r.Framework, r.Phase, r.Kind,
				r.Stats.Mean, r.Stats.Median, r.Stats.Min, r.Stats.Max)
		}
	}
	return nil
}
