// Package perf implements the paper's performance evaluation (§V-D,
// Fig. 11): per-transaction execution (endorsement) latency and
// validation latency for read, write and delete transactions, measured
// under the original Fabric framework and under the modified framework
// with the defense features enabled.
//
// Each measurement repeats the operation the paper's 100 times (config-
// urable) on a three-org network and reports mean, median, min and max.
package perf

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaincode"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/network"
	"repro/internal/peer"
	"repro/internal/pvtdata"
	"repro/internal/service"
)

// TxKind enumerates the transaction types of Fig. 11.
type TxKind string

// The transaction types measured in Fig. 11.
const (
	TxRead   TxKind = "read"
	TxWrite  TxKind = "write"
	TxDelete TxKind = "delete"
)

// AllTxKinds lists the Fig. 11 transaction types in order.
var AllTxKinds = []TxKind{TxRead, TxWrite, TxDelete}

// Phase selects which latency is measured.
type Phase string

// The two phases instrumented by the paper.
const (
	PhaseExecution  Phase = "execution"
	PhaseValidation Phase = "validation"
)

// Stats summarizes a latency sample.
type Stats struct {
	Runs   int
	Mean   time.Duration
	Median time.Duration
	Min    time.Duration
	Max    time.Duration
}

func summarize(samples []time.Duration) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, s := range sorted {
		total += s
	}
	return Stats{
		Runs:   len(sorted),
		Mean:   total / time.Duration(len(sorted)),
		Median: sorted[len(sorted)/2],
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
	}
}

// Result is one Fig. 11 data point: a (framework, phase, tx kind) cell.
type Result struct {
	Framework string
	Phase     Phase
	Kind      TxKind
	Stats     Stats
}

// Options parameterizes a measurement run.
type Options struct {
	// Runs per cell; the paper uses 100.
	Runs int
	// Security is the framework variant under test.
	Security core.SecurityConfig
	// Framework labels the variant in reports.
	Framework string
}

func (o Options) withDefaults() Options {
	if o.Runs == 0 {
		o.Runs = 100
	}
	if o.Framework == "" {
		o.Framework = "original"
	}
	return o
}

// harness is a warm three-org network prepared for latency measurement.
type harness struct {
	net     *network.Network
	members []*peer.Peer
}

// newHarness builds the measurement network: org1+org2 share the PDC,
// org3 is a non-member, collection-level policy AND(org1, org2) so that
// Feature 1 has a policy to route to.
func newHarness(sec core.SecurityConfig) (*harness, error) {
	net, err := network.New(network.Options{
		Orgs:     []string{"org1", "org2", "org3"},
		Security: sec,
		Seed:     123,
	})
	if err != nil {
		return nil, err
	}
	def := &chaincode.Definition{
		Name:    "asset",
		Version: "1.0",
		Collections: []pvtdata.CollectionConfig{{
			Name:              "pdc1",
			MemberPolicy:      "OR(org1.member, org2.member)",
			MaxPeerCount:      3,
			EndorsementPolicy: "AND(org1.peer, org2.peer)",
		}},
	}
	impl := contracts.NewPublicAsset()
	for name, fn := range contracts.NewPDC(contracts.PDCOptions{Collection: "pdc1"}) {
		impl[name] = fn
	}
	if err := net.DeployChaincode(def, impl); err != nil {
		return nil, err
	}
	return &harness{
		net:     net,
		members: []*peer.Peer{net.Peer("org1"), net.Peer("org2")},
	}, nil
}

// submit drives one transaction end to end through the org1 gateway.
// A nil endorser set falls through to the gateway default (every peer).
func (h *harness) submit(endorsers []*peer.Peer, fn string, args []string) (*gateway.Result, error) {
	req := service.NewInvoke("asset", fn, args...)
	if endorsers != nil {
		req = req.WithEndorsers(service.Names(endorsers)...)
	}
	return h.net.Gateway("org1").Submit(context.Background(), req)
}

// endorse assembles one transaction against the member peers without
// ordering it, for benchmarks that interpose between the phases.
func (h *harness) endorse(fn string, args []string) (*ledger.Transaction, error) {
	gw := h.net.Gateway("org1")
	prop, err := gw.NewProposal("asset", fn, args, nil)
	if err != nil {
		return nil, err
	}
	tx, _, err := gw.EndorseProposal(context.Background(), prop, service.AsEndorsers(h.members))
	return tx, err
}

// proposalFor builds the proposal of one measured operation. Keys are
// unique per run so write and delete operations do not interfere.
func (h *harness) proposalFor(kind TxKind, run int) (fn string, args []string, err error) {
	key := "k" + strconv.Itoa(run)
	switch kind {
	case TxRead:
		// Reads target a pre-written key.
		return "readPrivate", []string{key}, nil
	case TxWrite:
		return "setPrivate", []string{key, "12"}, nil
	case TxDelete:
		return "delPrivate", []string{key, "12"}, nil
	default:
		return "", nil, fmt.Errorf("perf: unknown kind %q", kind)
	}
}

// seed pre-writes the keys that read and delete operations will touch.
func (h *harness) seed(kind TxKind, runs int) error {
	if kind == TxWrite {
		return nil
	}
	for i := 0; i < runs; i++ {
		key := "k" + strconv.Itoa(i)
		if _, err := h.submit(h.members, "setPrivate", []string{key, "12"}); err != nil {
			return fmt.Errorf("perf: seed %s: %w", key, err)
		}
	}
	return nil
}

// MeasureExecution times the execution phase (ProcessProposal on one
// member endorser) for one transaction kind.
func MeasureExecution(opts Options, kind TxKind) (Result, error) {
	o := opts.withDefaults()
	h, err := newHarness(o.Security)
	if err != nil {
		return Result{}, err
	}
	if err := h.seed(kind, o.Runs); err != nil {
		return Result{}, err
	}
	gw := h.net.Gateway("org1")
	// Warm up outside the measurement window (JIT-free, but first runs
	// still pay allocator and cache warmup costs).
	warmup := warmupRuns(o.Runs)
	samples := make([]time.Duration, 0, o.Runs)
	for i := -warmup; i < o.Runs; i++ {
		run := i
		if run < 0 {
			run = 0
		}
		fn, args, err := h.proposalFor(kind, run)
		if err != nil {
			return Result{}, err
		}
		prop, err := gw.NewProposal("asset", fn, args, nil)
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		if _, err := h.net.Peer("org1").ProcessProposal(prop); err != nil {
			return Result{}, fmt.Errorf("perf: execute %s run %d: %w", kind, i, err)
		}
		if i >= 0 {
			samples = append(samples, time.Since(start))
		}
	}
	return Result{Framework: o.Framework, Phase: PhaseExecution, Kind: kind, Stats: summarize(samples)}, nil
}

// MeasureValidation times the validation phase: ValidateTx for fully
// endorsed transactions of one kind, on the pipeline target peer (org3).
// org3 never endorses, so every endorsement is a signature it has not
// seen: a peer that endorsed the transaction would skip verifying its
// own signature and time less than validation.
func MeasureValidation(opts Options, kind TxKind) (Result, error) {
	o := opts.withDefaults()
	h, err := newHarness(o.Security)
	if err != nil {
		return Result{}, err
	}
	if err := h.seed(kind, o.Runs); err != nil {
		return Result{}, err
	}
	// Pre-endorse the warm-up and the measured transactions, then time
	// validation only. Each transaction is validated once: validating
	// one twice would time a cache hit.
	warmup := warmupRuns(o.Runs)
	txs := make([]*ledger.Transaction, 0, warmup+o.Runs)
	for i := -warmup; i < o.Runs; i++ {
		fn, args, err := h.proposalFor(kind, max(i, 0))
		if err != nil {
			return Result{}, err
		}
		tx, err := h.endorse(fn, args)
		if err != nil {
			return Result{}, fmt.Errorf("perf: endorse %s run %d: %w", kind, i, err)
		}
		txs = append(txs, tx)
	}

	v := h.net.Peer(pipelineTarget).Validator()
	samples := make([]time.Duration, 0, o.Runs)
	for i, tx := range txs {
		start := time.Now()
		code := v.ValidateTx(tx)
		elapsed := time.Since(start)
		if code != ledger.Valid {
			return Result{}, fmt.Errorf("perf: validate %s run %d: %v", kind, i-warmup, code)
		}
		if i >= warmup {
			samples = append(samples, elapsed)
		}
	}
	return Result{Framework: o.Framework, Phase: PhaseValidation, Kind: kind, Stats: summarize(samples)}, nil
}

// warmupRuns is the number of unmeasured operations run before a
// measurement: allocator and cache warm-up, not JIT.
func warmupRuns(runs int) int {
	return max(runs/10, 3)
}

// RunFig11 produces the full Fig. 11 dataset: execution and validation
// latency for read/write/delete under the original and the defended
// framework.
func RunFig11(runs int) ([]Result, error) {
	var out []Result
	variants := []Options{
		{Runs: runs, Framework: "original", Security: core.OriginalFabric()},
		{Runs: runs, Framework: "defended", Security: core.DefendedFabric()},
	}
	for _, v := range variants {
		for _, kind := range AllTxKinds {
			exec, err := MeasureExecution(v, kind)
			if err != nil {
				return nil, err
			}
			out = append(out, exec)
			val, err := MeasureValidation(v, kind)
			if err != nil {
				return nil, err
			}
			out = append(out, val)
		}
	}
	return out, nil
}

// Render prints Fig. 11 as a table grouped by phase, with the overhead of
// the defended framework relative to the original.
func Render(results []Result) string {
	byKey := make(map[string]Result, len(results))
	for _, r := range results {
		byKey[string(r.Phase)+"/"+string(r.Kind)+"/"+r.Framework] = r
	}
	var b strings.Builder
	b.WriteString("Fig. 11 — Impact of defense measures on system performance\n")
	for _, phase := range []Phase{PhaseExecution, PhaseValidation} {
		fmt.Fprintf(&b, "\n%s latency (per transaction)\n", phase)
		fmt.Fprintf(&b, "%-10s%-14s%-14s%-10s\n", "tx", "original", "defended", "overhead")
		for _, kind := range AllTxKinds {
			orig, okO := byKey[string(phase)+"/"+string(kind)+"/original"]
			def, okD := byKey[string(phase)+"/"+string(kind)+"/defended"]
			if !okO || !okD {
				continue
			}
			// Medians: on a shared machine the mean is dominated by
			// scheduler outliers.
			overhead := "n/a"
			if orig.Stats.Median > 0 {
				delta := 100 * (float64(def.Stats.Median) - float64(orig.Stats.Median)) / float64(orig.Stats.Median)
				overhead = fmt.Sprintf("%+.1f%%", delta)
			}
			fmt.Fprintf(&b, "%-10s%-14s%-14s%-10s\n",
				kind, orig.Stats.Median.Round(time.Microsecond), def.Stats.Median.Round(time.Microsecond), overhead)
		}
	}
	return b.String()
}
