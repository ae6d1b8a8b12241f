package validator

import (
	"reflect"
	"testing"

	"repro/internal/chaincode"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/pvtdata"
	"repro/internal/rwset"
	"repro/internal/statedb"
)

// pipelineFixture shares one channel (CAs, identities, chaincode
// definition) across several independent validators, so the same signed
// block can be validated under different worker counts and the results
// compared byte for byte.
type pipelineFixture struct {
	cfg   *channel.Config
	def   *chaincode.Definition
	peers map[string]*identity.Identity
}

func newPipelineFixture(t *testing.T) *pipelineFixture {
	t.Helper()
	orgs := []string{"org1", "org2", "org3"}
	var orgCfgs []channel.OrgConfig
	peers := make(map[string]*identity.Identity, len(orgs))
	for _, org := range orgs {
		ca, err := identity.NewCA(org)
		if err != nil {
			t.Fatal(err)
		}
		orgCfgs = append(orgCfgs, channel.OrgConfig{Name: org, CAPub: ca.PublicKey()})
		id, err := ca.Issue("peer0."+org, identity.RolePeer)
		if err != nil {
			t.Fatal(err)
		}
		peers[org] = id
	}
	return &pipelineFixture{
		cfg: channel.NewConfig("c1", orgCfgs...),
		def: &chaincode.Definition{
			Name:    "cc",
			Version: "1.0",
			Collections: []pvtdata.CollectionConfig{{
				Name:         "pdc1",
				MemberPolicy: "OR(org1.member, org2.member)",
				MaxPeerCount: 3,
			}},
		},
		peers: peers,
	}
}

// pipelinePeer is one isolated validator (own world state, private
// store, blockchain) configured with a fixed worker count.
type pipelinePeer struct {
	v        *Validator
	certs    *identity.VerifyCache
	db       *statedb.DB
	blocks   *ledger.BlockStore
	counters *metrics.Counters
	timings  *metrics.Timings
}

func (f *pipelineFixture) newPeer(workers int) *pipelinePeer {
	sec := core.OriginalFabric()
	sec.ValidationWorkers = workers
	return f.newPeerWith(sec)
}

// newPeerWith builds peer0.org2's validator under sec; its identity is
// f.peers["org2"].
func (f *pipelineFixture) newPeerWith(sec core.SecurityConfig) *pipelinePeer {
	db := statedb.New()
	p := &pipelinePeer{
		db:       db,
		blocks:   ledger.NewBlockStore(),
		counters: &metrics.Counters{},
		timings:  &metrics.Timings{},
	}
	p.certs = identity.NewVerifyCache(f.cfg.Verifier(), sec.VerifyCacheSize, p.counters)
	p.v = New(Config{
		SelfName:  "peer0.org2",
		SelfOrg:   "org2",
		Channel:   f.cfg,
		Certs:     p.certs,
		Defs:      func(name string) *chaincode.Definition { return map[string]*chaincode.Definition{"cc": f.def}[name] },
		DB:        db,
		Pvt:       pvtdata.NewStore(db),
		Transient: pvtdata.NewTransientStore(),
		Gossip:    gossip.NewNetwork(),
		Blocks:    p.blocks,
		Security:  sec,
		Timings:   p.timings,
	})
	return p
}

// tx assembles an endorsed transaction over the given rwset.
func (f *pipelineFixture) tx(t *testing.T, txID string, set *rwset.TxRWSet, endorsers ...string) *ledger.Transaction {
	t.Helper()
	prp := &ledger.ProposalResponsePayload{
		TxID:      txID,
		Chaincode: "cc",
		Response:  ledger.Response{Status: ledger.StatusOK},
		Results:   set.Marshal(),
	}
	tx := &ledger.Transaction{
		TxID:            txID,
		ChannelID:       "c1",
		Proposal:        &ledger.Proposal{TxID: txID, Chaincode: "cc"},
		ResponsePayload: prp.Bytes(),
	}
	for _, org := range endorsers {
		id := f.peers[org]
		sig, err := id.Sign(tx.ResponsePayload)
		if err != nil {
			t.Fatal(err)
		}
		tx.Endorsements = append(tx.Endorsements, ledger.Endorsement{
			Endorser:  id.Cert.Bytes(),
			Signature: sig,
		})
	}
	return tx
}

func writeSet(t *testing.T, txID, key string) *rwset.TxRWSet {
	t.Helper()
	b := rwset.NewBuilder()
	b.AddWrite("cc", key, rwset.KVWrite{Key: key, Value: []byte("v")})
	set, _ := b.Build(txID)
	return set
}

// determinismBlock builds a block whose correct validation depends on
// strict block-order semantics in the sequential stage:
//
//	t1 Valid      public write "a" under the majority policy
//	t2 MVCC       reads "a"@0, stale once t1 committed *in this block*
//	t3 Valid      meta-write installing key-level policy OR(org2.peer) on "kl"
//	t4 PolicyFail write to "kl" by a majority that fails t3's new policy
//	t5 Valid      write to "kl" by org2, exempt from the chaincode policy
//	t6 BadSig     corrupted endorsement signature
//	t7 Valid      private write, majority policy (no collection EP)
//	t8 PolicyFail single endorsement, no majority
//
// t2 and t4 are only classified correctly when the state-dependent
// checks observe the commits of t1 and t3; a pipeline that ran MVCC or
// key-level routing concurrently would misflag them.
func determinismBlock(t *testing.T, f *pipelineFixture) (*ledger.Block, []ledger.ValidationCode) {
	t.Helper()
	readA := rwset.NewBuilder()
	readA.AddRead("cc", "a", rwset.KVRead{Key: "a", Version: 0})
	readA.AddWrite("cc", "b", rwset.KVWrite{Key: "b", Value: []byte("v")})
	readASet, _ := readA.Build("t2")

	meta := rwset.NewBuilder()
	meta.AddMetaWrite("cc", "kl", rwset.KVMetaWrite{Key: "kl", Policy: "OR(org2.peer)"})
	metaSet, _ := meta.Build("t3")

	pvtW := rwset.NewBuilder()
	pvtW.AddPvtWrite("pdc1", "p", rwset.KVWrite{Key: "p", Value: []byte("secret")})
	pvtSet, _ := pvtW.Build("t7")

	badSig := f.tx(t, "t6", writeSet(t, "t6", "z"), "org1", "org2")
	badSig.Endorsements[1].Signature[0] ^= 0xff

	txs := []*ledger.Transaction{
		f.tx(t, "t1", writeSet(t, "t1", "a"), "org1", "org3"),
		f.tx(t, "t2", readASet, "org1", "org2"),
		f.tx(t, "t3", metaSet, "org1", "org2"),
		f.tx(t, "t4", writeSet(t, "t4", "kl"), "org1", "org3"),
		f.tx(t, "t5", writeSet(t, "t5", "kl"), "org2"),
		badSig,
		f.tx(t, "t7", pvtSet, "org1", "org3"),
		f.tx(t, "t8", writeSet(t, "t8", "y"), "org1"),
	}
	want := []ledger.ValidationCode{
		ledger.Valid,
		ledger.MVCCConflict,
		ledger.Valid,
		ledger.EndorsementPolicyFailure,
		ledger.Valid,
		ledger.BadSignature,
		ledger.Valid,
		ledger.EndorsementPolicyFailure,
	}
	return ledger.NewBlock(0, nil, txs), want
}

// TestPipelineDeterminism validates the same block with 1, 2 and 8
// workers and asserts identical validation flags, world state and block
// hashes — the regression gate for the pipeline's ordering guarantees.
// Run under -race to also exercise the worker pool for data races.
func TestPipelineDeterminism(t *testing.T) {
	f := newPipelineFixture(t)
	block, want := determinismBlock(t, f)

	type outcome struct {
		flags []ledger.ValidationCode
		state string
		hash  []byte
	}
	outcomes := make(map[int]outcome)
	for _, workers := range []int{1, 2, 8} {
		p := f.newPeer(workers)
		cp := block.Clone()
		if err := p.v.ValidateAndCommit(cp); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		outcomes[workers] = outcome{
			flags: cp.Metadata.ValidationFlags,
			state: p.db.String(),
			hash:  p.blocks.LastHash(),
		}
	}

	base := outcomes[1]
	if !reflect.DeepEqual(base.flags, want) {
		t.Fatalf("sequential flags = %v, want %v", base.flags, want)
	}
	for _, workers := range []int{2, 8} {
		got := outcomes[workers]
		if !reflect.DeepEqual(got.flags, base.flags) {
			t.Errorf("workers=%d flags = %v, want %v", workers, got.flags, base.flags)
		}
		if got.state != base.state {
			t.Errorf("workers=%d world state diverged:\n%s\nvs sequential:\n%s", workers, got.state, base.state)
		}
		if string(got.hash) != string(base.hash) {
			t.Errorf("workers=%d block hash diverged", workers)
		}
	}
}

// TestPipelineValidateBlock checks the commit-free pipeline entry point
// used by benchmarks: repeated runs return identical codes and leave no
// trace in the world state or the chain.
func TestPipelineValidateBlock(t *testing.T) {
	f := newPipelineFixture(t)
	p := f.newPeer(4)
	txs := []*ledger.Transaction{
		f.tx(t, "t1", writeSet(t, "t1", "a"), "org1", "org2"),
		f.tx(t, "t2", writeSet(t, "t2", "b"), "org2", "org3"),
		f.tx(t, "t3", writeSet(t, "t3", "c"), "org1"),
	}
	block := ledger.NewBlock(0, nil, txs)
	want := []ledger.ValidationCode{ledger.Valid, ledger.Valid, ledger.EndorsementPolicyFailure}
	for run := 0; run < 3; run++ {
		if got := p.v.ValidateBlock(block); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: codes = %v, want %v", run, got, want)
		}
	}
	if h := p.blocks.Height(); h != 0 {
		t.Fatalf("ValidateBlock appended a block: height %d", h)
	}
	if _, _, ok := p.db.Get("cc", "a"); ok {
		t.Fatal("ValidateBlock committed a write")
	}
}

// TestPipelineMetrics checks that the pipeline emits the four per-phase
// histograms and that the verify cache reports hits for repeat
// endorsers within a block.
func TestPipelineMetrics(t *testing.T) {
	f := newPipelineFixture(t)
	p := f.newPeer(2)
	txs := make([]*ledger.Transaction, 0, 4)
	for _, id := range []string{"m1", "m2", "m3", "m4"} {
		txs = append(txs, f.tx(t, id, writeSet(t, id, "k"+id), "org1", "org2"))
	}
	if err := p.v.ValidateAndCommit(ledger.NewBlock(0, nil, txs)); err != nil {
		t.Fatal(err)
	}
	snap := p.timings.Snapshot()
	for _, name := range []string{
		metrics.ValidateVerify, metrics.ValidatePolicy,
		metrics.ValidateMVCC, metrics.ValidateCommit,
	} {
		h, ok := snap[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %s missing or empty", name)
		}
	}
	// 8 endorsement verifications over 2 distinct certificates, each
	// counted once as a hit or a miss. A certificate's first verification
	// misses; the cache does not coalesce in-flight verifications, so each
	// of the 2 workers may miss each certificate once before either
	// stores it — and no more than that.
	const lookups, certs, workers = 8, 2, 2
	hits := p.counters.Get(metrics.VerifyCacheHits)
	misses := p.counters.Get(metrics.VerifyCacheMisses)
	if hits+misses != lookups {
		t.Errorf("verify cache hits %d + misses %d, want %d lookups", hits, misses, lookups)
	}
	if misses < certs || misses > certs*workers {
		t.Errorf("verify cache misses = %d, want %d..%d", misses, certs, certs*workers)
	}
}
