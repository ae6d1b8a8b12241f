// Package repro's root benchmark suite regenerates every table and
// figure of the paper's evaluation (§V). One benchmark (or benchmark
// family) exists per artifact:
//
//	Table I   -> BenchmarkTableI_RWSetSemantics
//	Table II  -> BenchmarkTableII_Matrix (plus TestTableIIMatrix in
//	             internal/attacks)
//	Fig. 5/6, §V-A3..A6 -> BenchmarkAttack_*
//	Fig. 7–10 -> BenchmarkFig7to10_CorpusAnalysis (plus the exact-count
//	             tests in internal/corpus)
//	Fig. 11   -> BenchmarkFig11_* (plus `cmd/experiments -skip
//	             matrix,corpus` for the paper-style 100-run report)
//
// Run with: go test -bench=. -benchmem .
package repro

import (
	"fmt"
	"testing"

	"repro/internal/analyzer"
	"repro/internal/attacks"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ledger"
	"repro/internal/perf"
	"repro/internal/rwset"
)

// BenchmarkTableI_RWSetSemantics measures read/write-set construction
// for the four transaction types of Table I.
func BenchmarkTableI_RWSetSemantics(b *testing.B) {
	cases := []struct {
		name  string
		build func(bd *rwset.Builder)
		want  rwset.TxType
	}{
		{"ReadOnly", func(bd *rwset.Builder) {
			bd.AddPvtRead("pdc1", "k1", rwset.KVRead{Key: "k1", Version: 1})
		}, rwset.TxReadOnly},
		{"WriteOnly", func(bd *rwset.Builder) {
			bd.AddPvtWrite("pdc1", "k1", rwset.KVWrite{Key: "k1", Value: []byte("val1")})
		}, rwset.TxWriteOnly},
		{"ReadWrite", func(bd *rwset.Builder) {
			bd.AddPvtRead("pdc1", "k1", rwset.KVRead{Key: "k1", Version: 1})
			bd.AddPvtWrite("pdc1", "k1", rwset.KVWrite{Key: "k1", Value: []byte("val1")})
		}, rwset.TxReadWrite},
		{"DeleteOnly", func(bd *rwset.Builder) {
			bd.AddPvtWrite("pdc1", "k1", rwset.KVWrite{Key: "k1", IsDelete: true})
		}, rwset.TxDeleteOnly},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd := rwset.NewBuilder()
				tc.build(bd)
				set, _ := bd.Build("tx")
				if rwset.Classify(set) != tc.want {
					b.Fatalf("classified %v, want %v", rwset.Classify(set), tc.want)
				}
			}
		})
	}
}

// BenchmarkTableII_Matrix regenerates single cells of Table II (one
// fresh network + attack per iteration).
func BenchmarkTableII_Matrix(b *testing.B) {
	cells := []struct {
		name   string
		attack attacks.AttackKind
		cfg    attacks.ConfigKind
		want   attacks.CellResult
	}{
		{"ReadOnly_MAJORITY", attacks.AttackReadOnly, attacks.ConfigMajority, attacks.CellWorks},
		{"WriteOnly_CollEP", attacks.AttackWriteOnly, attacks.ConfigCollectionEP, attacks.CellFails},
		{"ReadOnly_Feature1", attacks.AttackReadOnly, attacks.ConfigFeature1, attacks.CellFails},
		{"LeakRead_Original", attacks.AttackLeakRead, attacks.ConfigOriginal, attacks.CellWorks},
		{"LeakRead_Feature2", attacks.AttackLeakRead, attacks.ConfigFeature2, attacks.CellFails},
	}
	for _, tc := range cells {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cell, _, err := attacks.Cell(tc.attack, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if cell != tc.want {
					b.Fatalf("cell = %v, want %v", cell, tc.want)
				}
			}
		})
	}
}

// BenchmarkAttack_FakeReadInjection is the Fig. 5 experiment: full
// network build + endorsement forgery + ordering + validation.
func BenchmarkAttack_FakeReadInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := attacks.Setup(attacks.Scenario{Name: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if out := attacks.FakeReadInjection(env); !out.Succeeded {
			b.Fatalf("attack failed: %s", out.Detail)
		}
	}
}

// BenchmarkAttack_FakeWriteInjection is the Fig. 6 experiment.
func BenchmarkAttack_FakeWriteInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := attacks.Setup(attacks.Scenario{Name: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if out := attacks.FakeWriteInjection(env); !out.Succeeded {
			b.Fatalf("attack failed: %s", out.Detail)
		}
	}
}

// BenchmarkAttack_NOutOf is the §V-A5 experiment (5 orgs, 2OutOf5, two
// non-member attackers).
func BenchmarkAttack_NOutOf(b *testing.B) {
	s := attacks.Scenario{
		Name:            "bench",
		Orgs:            []string{"org1", "org2", "org3", "org4", "org5"},
		ChaincodePolicy: "OutOf(2, org1.peer, org2.peer, org3.peer, org4.peer, org5.peer)",
		Malicious:       []string{"org3", "org4"},
	}
	for i := 0; i < b.N; i++ {
		env, err := attacks.Setup(s)
		if err != nil {
			b.Fatal(err)
		}
		if out := attacks.FakeWriteInjection(env); !out.Succeeded {
			b.Fatalf("attack failed: %s", out.Detail)
		}
	}
}

// BenchmarkAttack_PDCLeakage covers §V-B: extraction of private values
// from a non-member's blockchain.
func BenchmarkAttack_PDCLeakage(b *testing.B) {
	env, err := attacks.Setup(attacks.Scenario{Name: "bench", DisableForgers: true})
	if err != nil {
		b.Fatal(err)
	}
	if out := attacks.PDCReadLeakage(env); !out.Succeeded {
		b.Fatalf("setup leak failed: %s", out.Detail)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if leaks := attacks.ExtractPDCPayloads(env.Net.Peer("org3")); len(leaks) == 0 {
			b.Fatal("no payloads extracted")
		}
	}
}

// BenchmarkFig7to10_CorpusAnalysis generates the proportional test
// corpus once and measures the full static-analysis sweep that produces
// Figs. 7–10.
func BenchmarkFig7to10_CorpusAnalysis(b *testing.B) {
	root := b.TempDir()
	if _, err := corpus.Generate(root, corpus.TinySpec()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := analyzer.ScanCorpus(root)
		if err != nil {
			b.Fatal(err)
		}
		if report.ExplicitPDC == 0 {
			b.Fatal("scan found no PDC projects")
		}
	}
}

// fig11Exec benchmarks the execution phase of one transaction kind under
// one framework variant — the Fig. 11 execution-latency series.
func fig11Exec(b *testing.B, kind perf.TxKind, sec core.SecurityConfig) {
	// One seeded key suffices: the execution phase simulates without
	// committing, so every iteration can target the same key.
	h, err := perf.NewHarness(sec, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.ExecuteOnce(kind, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// fig11Validate benchmarks the validation phase of one transaction kind
// under one framework variant — the Fig. 11 validation-latency series.
func fig11Validate(b *testing.B, kind perf.TxKind, sec core.SecurityConfig) {
	// ValidateTx never commits, so every transaction can target the one
	// seeded key. Each iteration validates a transaction the peer has not
	// seen: re-validating one would time verification-cache hits.
	h, err := perf.NewHarness(sec, 1)
	if err != nil {
		b.Fatal(err)
	}
	txs := make([]*ledger.Transaction, b.N)
	for i := range txs {
		if txs[i], err = h.EndorseTx(kind, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for _, tx := range txs {
		if err := h.ValidateOnce(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_Execution_Read_Original(b *testing.B) {
	fig11Exec(b, perf.TxRead, core.OriginalFabric())
}
func BenchmarkFig11_Execution_Read_Defended(b *testing.B) {
	fig11Exec(b, perf.TxRead, core.DefendedFabric())
}
func BenchmarkFig11_Execution_Write_Original(b *testing.B) {
	fig11Exec(b, perf.TxWrite, core.OriginalFabric())
}
func BenchmarkFig11_Execution_Write_Defended(b *testing.B) {
	fig11Exec(b, perf.TxWrite, core.DefendedFabric())
}
func BenchmarkFig11_Execution_Delete_Original(b *testing.B) {
	fig11Exec(b, perf.TxDelete, core.OriginalFabric())
}
func BenchmarkFig11_Execution_Delete_Defended(b *testing.B) {
	fig11Exec(b, perf.TxDelete, core.DefendedFabric())
}

func BenchmarkFig11_Validation_Read_Original(b *testing.B) {
	fig11Validate(b, perf.TxRead, core.OriginalFabric())
}
func BenchmarkFig11_Validation_Read_Defended(b *testing.B) {
	fig11Validate(b, perf.TxRead, core.DefendedFabric())
}
func BenchmarkFig11_Validation_Write_Original(b *testing.B) {
	fig11Validate(b, perf.TxWrite, core.OriginalFabric())
}
func BenchmarkFig11_Validation_Write_Defended(b *testing.B) {
	fig11Validate(b, perf.TxWrite, core.DefendedFabric())
}
func BenchmarkFig11_Validation_Delete_Original(b *testing.B) {
	fig11Validate(b, perf.TxDelete, core.OriginalFabric())
}
func BenchmarkFig11_Validation_Delete_Defended(b *testing.B) {
	fig11Validate(b, perf.TxDelete, core.DefendedFabric())
}

// benchParallelValidation measures the block validation pipeline
// (docs/VALIDATION.md) at a fixed worker count: each iteration commits
// one freshly endorsed 32-transaction block on a peer, timing only the
// validation phase (endorsement and block assembly run with the timer
// stopped). The verify cache is flushed per iteration so every
// iteration pays identical first-touch verification costs.
func benchParallelValidation(b *testing.B, workers int, readWrite bool) {
	const txsPerBlock = 32
	sec := core.OriginalFabric()
	sec.ValidationWorkers = workers
	h, err := perf.NewHarness(sec, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var txs []*ledger.Transaction
		if readWrite {
			txs, err = h.EndorseReadWriteTxs(i, txsPerBlock)
		} else {
			txs, err = h.EndorseTxs(i, txsPerBlock)
		}
		if err != nil {
			b.Fatal(err)
		}
		block := h.BuildBlock(txs)
		h.FlushVerifyCache()
		b.StartTimer()
		if err := h.CommitBlock(block); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*txsPerBlock)/b.Elapsed().Seconds(), "tx/s")
}

// BenchmarkParallelValidation compares commit throughput of the
// validation pipeline at 1, 2 and 8 workers, for two transaction
// families: write-only blocks ("set": empty read set) and read-write
// blocks ("add": every transaction carries a public read, so the batched
// MVCC check against the sharded statedb is on the critical path). On
// multi-core hardware the 8-worker series shows the fan-out of signature
// verification; on a single core all series converge (the pipeline adds
// no contention).
func BenchmarkParallelValidation(b *testing.B) {
	for _, family := range []struct {
		name      string
		readWrite bool
	}{{"write", false}, {"readwrite", true}} {
		b.Run(family.name, func(b *testing.B) {
			for _, workers := range []int{1, 2, 8} {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					benchParallelValidation(b, workers, family.readWrite)
				})
			}
		})
	}
}

// BenchmarkEndToEnd_PublicTransaction measures the whole pipeline —
// endorsement, Raft ordering, block cut, validation, commit — for a
// public transaction, a context figure for the latency results.
func BenchmarkEndToEnd_PublicTransaction(b *testing.B) {
	h, err := perf.NewHarness(core.OriginalFabric(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.SubmitPublicOnce(i); err != nil {
			b.Fatal(err)
		}
	}
}
