// Package endorser implements the execution phase of the three-phase
// transaction workflow (paper §II-B1): simulating a proposal against the
// peer's world state, building the (hashed, for PDC) read/write sets,
// signing the proposal response, and disseminating original private data
// to collection members via gossip.
//
// Defense Feature 2 (§IV-C2) plugs in here: instead of signing the
// proposal response with the plaintext "payload", the endorser signs the
// hashed-payload form PR_Hash and returns (PR_Ori, Sign(PR_Hash)) so the
// client gets its value while the transaction carries only the hash.
package endorser

import (
	"errors"
	"fmt"

	"repro/internal/chaincode"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/pvtdata"
	"repro/internal/rwset"
	"repro/internal/statedb"
)

// Errors returned by ProcessProposal.
var (
	// ErrChaincodeNotFound: no implementation installed for the
	// requested chaincode on this peer.
	ErrChaincodeNotFound = errors.New("endorser: chaincode not installed")
	// ErrChaincodeFailed: the chaincode function returned an error
	// response, so no endorsement is produced.
	ErrChaincodeFailed = errors.New("endorser: chaincode execution failed")
	// ErrBadCreator: the proposal creator's certificate is invalid.
	ErrBadCreator = errors.New("endorser: invalid creator certificate")
)

// Endorser is the endorsement engine of one peer.
type Endorser struct {
	id        *identity.Identity
	certs     *identity.VerifyCache
	registry  *chaincode.Registry
	defs      func(name string) *chaincode.Definition
	db        *statedb.DB
	pvt       *pvtdata.Store
	transient *pvtdata.TransientStore
	gossip    *gossip.Network
	sec       core.SecurityConfig
}

// Config wires an Endorser.
type Config struct {
	Identity *identity.Identity
	// Certs validates proposal creators and signs endorsements. The peer
	// shares one cache between its endorser and validator, so a client
	// certificate costs one CA-signature check per peer, not one per
	// proposal, and the validator never re-verifies what this endorser
	// signed.
	Certs     *identity.VerifyCache
	Registry  *chaincode.Registry
	Defs      func(name string) *chaincode.Definition
	DB        *statedb.DB
	Pvt       *pvtdata.Store
	Transient *pvtdata.TransientStore
	Gossip    *gossip.Network
	Security  core.SecurityConfig
}

// New creates an endorser.
func New(cfg Config) *Endorser {
	return &Endorser{
		id:        cfg.Identity,
		certs:     cfg.Certs,
		registry:  cfg.Registry,
		defs:      cfg.Defs,
		db:        cfg.DB,
		pvt:       cfg.Pvt,
		transient: cfg.Transient,
		gossip:    cfg.Gossip,
		sec:       cfg.Security,
	}
}

// SetSecurity swaps the active security configuration (used by the
// benchmark harness to compare original and defended frameworks on the
// same network).
func (e *Endorser) SetSecurity(sec core.SecurityConfig) { e.sec = sec }

// safeInvoke runs chaincode with panic isolation: user code (including a
// maliciously crashing customized chaincode) must not take the peer
// down. A panic becomes a failed endorsement, as a crashed chaincode
// container would in Fabric.
func safeInvoke(impl chaincode.Chaincode, stub chaincode.Stub) (resp ledger.Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = ledger.Response{
				Status:  ledger.StatusError,
				Message: fmt.Sprintf("chaincode panicked: %v", r),
			}
		}
	}()
	return impl.Invoke(stub)
}

// ProcessProposal simulates the proposal and returns a signed proposal
// response. The ledger is not updated (execution phase only). For PDC
// writes, the original private set is persisted to the transient store
// and disseminated to member peers before the endorsement is returned.
func (e *Endorser) ProcessProposal(prop *ledger.Proposal) (*ledger.ProposalResponse, error) {
	creator, err := e.certs.ParseAndValidate(prop.Creator)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCreator, err)
	}

	def := e.defs(prop.Chaincode)
	impl := e.registry.Get(prop.Chaincode)
	if def == nil || impl == nil {
		return nil, fmt.Errorf("%w: %q on %s", ErrChaincodeNotFound, prop.Chaincode, e.id.Subject())
	}

	builder := rwset.NewBuilder()
	// The chaincode gets its own copy: the cached certificate is what this
	// peer believes about the client on every later proposal.
	stub := chaincode.NewSimStub(prop, creator.Clone(), e.id.MSPID(), def, e.db, e.pvt, builder)
	stub.SetResolver(func(name string) (*chaincode.Definition, chaincode.Chaincode) {
		return e.defs(name), e.registry.Get(name)
	})
	// Release the simulation's state snapshot once endorsement finishes
	// so later commits stop copy-on-writing on its behalf.
	defer stub.Close()
	resp := safeInvoke(impl, stub)
	if resp.Status != ledger.StatusOK {
		return nil, fmt.Errorf("%w: %s", ErrChaincodeFailed, resp.Message)
	}

	txRW, pvtRW := builder.Build(prop.TxID)
	prp := &ledger.ProposalResponsePayload{
		TxID:      prop.TxID,
		Chaincode: prop.Chaincode,
		Response:  resp,
		Results:   txRW.Marshal(),
		Event:     stub.Event(),
	}

	// Dissemination happens before signing: an endorsement must not be
	// returned if the private data cannot reach RequiredPeerCount
	// member peers.
	if pvtRW != nil {
		e.transient.Persist(pvtRW)
		for i := range pvtRW.CollSets {
			coll := &pvtRW.CollSets[i]
			if len(coll.Writes) == 0 {
				continue
			}
			cfg := def.Collection(coll.Collection)
			if cfg == nil {
				return nil, fmt.Errorf("endorser: tx %s: unknown collection %q", prop.TxID, coll.Collection)
			}
			if err := e.gossip.Disseminate(e.id.Subject(), cfg, prop.TxID, coll); err != nil {
				return nil, fmt.Errorf("endorser: tx %s: %w", prop.TxID, err)
			}
		}
	}

	out := &ledger.ProposalResponse{Response: resp}
	if e.sec.HashedPayloadEndorsement {
		// Feature 2: sign PR_Hash, return PR_Ori alongside.
		hashed := prp.HashedPayloadForm().Bytes()
		out.Payload = hashed
		out.PlainPayload = prp.Bytes()
	} else {
		out.Payload = prp.Bytes()
	}
	// Signing through the peer's cache records the endorsement as
	// verified, so this peer's validator does not re-verify its own
	// signature when the block arrives.
	sig, err := e.certs.SignEndorsement(e.id, out.Payload)
	if err != nil {
		return nil, fmt.Errorf("endorser: sign response for tx %s: %w", prop.TxID, err)
	}
	out.Endorsement = ledger.Endorsement{
		Endorser:  e.id.Cert.Bytes(),
		Signature: sig,
	}
	return out, nil
}
