package perf

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/ledger"
)

// Harness exposes the measurement network for use by testing.B
// benchmarks, which need per-iteration control instead of the batch
// Measure* API.
type Harness struct {
	h *harness
}

// NewHarness builds a measurement network under the given security
// configuration and pre-writes `seeded` private keys k0..k(n-1) = 12.
func NewHarness(sec core.SecurityConfig, seeded int) (*Harness, error) {
	h, err := newHarness(sec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < seeded; i++ {
		key := "k" + strconv.Itoa(i)
		if _, err := h.submit(h.members, "setPrivate", []string{key, "12"}); err != nil {
			return nil, fmt.Errorf("perf: seed %s: %w", key, err)
		}
	}
	return &Harness{h: h}, nil
}

// ExecuteOnce runs the execution phase of one transaction of the given
// kind against a member endorser; run selects the target key.
func (h *Harness) ExecuteOnce(kind TxKind, run int) error {
	fn, args, err := h.h.proposalFor(kind, run)
	if err != nil {
		return err
	}
	prop, err := h.h.net.Gateway("org1").NewProposal("asset", fn, args, nil)
	if err != nil {
		return err
	}
	_, err = h.h.net.Peer("org1").ProcessProposal(prop)
	return err
}

// EndorseTx collects the member endorsements of one transaction of the
// given kind without ordering it.
func (h *Harness) EndorseTx(kind TxKind, run int) (*ledger.Transaction, error) {
	fn, args, err := h.h.proposalFor(kind, run)
	if err != nil {
		return nil, err
	}
	return h.h.endorse(fn, args)
}

// ValidateOnce runs the validation phase of a pre-endorsed transaction
// on a member peer (no commit).
func (h *Harness) ValidateOnce(tx *ledger.Transaction) error {
	if code := h.h.net.Peer("org2").Validator().ValidateTx(tx); code != ledger.Valid {
		return fmt.Errorf("perf: validation returned %v", code)
	}
	return nil
}

// SubmitPublicOnce drives a full public transaction through the network
// (endorse, order, validate, commit), for end-to-end throughput benches.
func (h *Harness) SubmitPublicOnce(run int) error {
	key := "pub" + strconv.Itoa(run)
	_, err := h.h.submit(nil, "set", []string{key, "v"})
	return err
}

// pipelineTarget is the peer whose validation pipeline the block
// benchmarks drive. org3 never endorses in this harness, so its world
// state advances only through the measured commits.
const pipelineTarget = "org3"

// EndorseTxs endorses n public write-only transactions against the
// member peers (keys unique per (run, i) so blocks never conflict) and
// returns them ready for block assembly.
func (h *Harness) EndorseTxs(run, n int) ([]*ledger.Transaction, error) {
	return h.endorseN("set", "blk", "v", run, n)
}

// EndorseReadWriteTxs endorses n public read-write transactions (the
// asset contract's "add" function: GetState + PutState on the same key),
// so each transaction carries a non-empty public read set and the
// validator's MVCC version check does real work. Keys are unique per
// (run, i) so blocks never conflict.
func (h *Harness) EndorseReadWriteTxs(run, n int) ([]*ledger.Transaction, error) {
	return h.endorseN("add", "rw", "1", run, n)
}

func (h *Harness) endorseN(fn, prefix, value string, run, n int) ([]*ledger.Transaction, error) {
	txs := make([]*ledger.Transaction, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s%d-%d", prefix, run, i)
		tx, err := h.h.endorse(fn, []string{key, value})
		if err != nil {
			return nil, fmt.Errorf("perf: endorse %s %s: %w", fn, key, err)
		}
		txs = append(txs, tx)
	}
	return txs, nil
}

// BuildBlock assembles the transactions into the next block of the
// pipeline target peer's chain.
func (h *Harness) BuildBlock(txs []*ledger.Transaction) *ledger.Block {
	chain := h.h.net.Peer(pipelineTarget).Ledger()
	return ledger.NewBlock(chain.Height(), chain.LastHash(), txs)
}

// CommitBlock runs the validation pipeline (validate + commit + append)
// on the pipeline target peer.
func (h *Harness) CommitBlock(block *ledger.Block) error {
	return h.h.net.Peer(pipelineTarget).CommitBlock(block)
}

// FlushVerifyCache drops the pipeline target peer's memoized endorsement
// verifications, so a measurement starts from the uncached path.
func (h *Harness) FlushVerifyCache() {
	h.h.net.Peer(pipelineTarget).Validator().FlushVerifyCache()
}
