// Package identity implements the membership service provider (MSP) layer
// of the Fabric reproduction.
//
// Every node in a permissioned Fabric network — peer, orderer or client —
// carries an identity: a certificate binding a public key to an
// organization and a role, signed by the organization's certificate
// authority. Policies (package policy) are evaluated over these
// identities: "AND(Org1.peer, Org2.peer)" asks whether a transaction
// carries valid signatures from a peer of org1 and a peer of org2.
//
// The reproduction keeps the semantics of Fabric's MSP (org binding, role
// binding, CA-signed certificates, signature verification) while replacing
// full X.509 machinery with a compact certificate structure.
package identity

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fabcrypto"
)

// Role describes the function of an identity inside its organization.
type Role string

// Roles recognized by the MSP. Fabric distinguishes peers, orderers,
// clients and admins; policies may reference any of them.
const (
	RolePeer    Role = "peer"
	RoleOrderer Role = "orderer"
	RoleClient  Role = "client"
	RoleAdmin   Role = "admin"
	// RoleMember matches any role of an organization in policy
	// expressions such as "Org1.member".
	RoleMember Role = "member"
)

var (
	// ErrUnknownOrg is returned when a certificate names an
	// organization the verifier has no CA material for.
	ErrUnknownOrg = errors.New("identity: unknown organization")
	// ErrBadCertificate is returned when a certificate's CA signature
	// does not verify.
	ErrBadCertificate = errors.New("identity: certificate signature invalid")
)

// Certificate binds a public key to an organization and role. It is signed
// by the organization's CA. The Subject is a human-readable node name such
// as "peer0.org1".
type Certificate struct {
	Subject string              `json:"subject"`
	Org     string              `json:"org"`
	Role    Role                `json:"role"`
	PubKey  fabcrypto.PublicKey `json:"pub_key"`
	CASig   []byte              `json:"ca_sig"`
}

// tbs returns the to-be-signed serialization of the certificate (all
// fields except the CA signature).
func (c *Certificate) tbs() []byte {
	return fabcrypto.HashConcat(
		[]byte(c.Subject),
		[]byte(c.Org),
		[]byte(c.Role),
		c.PubKey,
	)
}

// Bytes returns the canonical JSON serialization of the certificate, used
// when a certificate travels inside a transaction.
func (c *Certificate) Bytes() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		// Certificate contains only marshalable fields; this cannot
		// fail for well-formed values.
		panic(fmt.Sprintf("identity: marshal certificate: %v", err))
	}
	return b
}

// Clone returns a deep copy of the certificate. Certificates served by a
// VerifyCache are shared by every later lookup and must not be mutated;
// code that hands one to untrusted callers (chaincode) hands a clone.
func (c *Certificate) Clone() *Certificate {
	out := *c
	out.PubKey = append(fabcrypto.PublicKey(nil), c.PubKey...)
	out.CASig = append([]byte(nil), c.CASig...)
	return &out
}

// ParseCertificate decodes a certificate serialized with Bytes.
func ParseCertificate(b []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("identity: parse certificate: %w", err)
	}
	return &c, nil
}

// Identity is a certificate together with the private key that can speak
// for it. Nodes hold an Identity; transactions carry only the Certificate.
type Identity struct {
	Cert *Certificate
	key  *fabcrypto.KeyPair
}

// Sign signs msg with the identity's private key.
func (id *Identity) Sign(msg []byte) ([]byte, error) {
	return id.signDigest(fabcrypto.Hash(msg))
}

// signDigest signs the SHA-256 digest of a message with the identity's
// private key; VerifyCache.SignEndorsement keeps the digest for its
// entry key.
func (id *Identity) signDigest(digest []byte) ([]byte, error) {
	sig, err := id.key.SignDigest(digest)
	if err != nil {
		return nil, fmt.Errorf("identity %s: %w", id.Cert.Subject, err)
	}
	return sig, nil
}

// MSPID returns the identity's organization name.
func (id *Identity) MSPID() string { return id.Cert.Org }

// Subject returns the node name, e.g. "peer0.org1".
func (id *Identity) Subject() string { return id.Cert.Subject }

// CA is an organization's certificate authority. It issues certificates
// for the organization's nodes.
type CA struct {
	Org string
	key *fabcrypto.KeyPair
}

// NewCA creates a certificate authority for org.
func NewCA(org string) (*CA, error) {
	kp, err := fabcrypto.GenerateKeyPair()
	if err != nil {
		return nil, fmt.Errorf("identity: new CA for %s: %w", org, err)
	}
	return &CA{Org: org, key: kp}, nil
}

// PublicKey returns the CA's verification key, distributed to all channel
// members so that any peer can validate any certificate.
func (ca *CA) PublicKey() fabcrypto.PublicKey { return ca.key.PublicKey() }

// Issue creates a new identity (certificate + private key) for a node of
// the CA's organization.
func (ca *CA) Issue(subject string, role Role) (*Identity, error) {
	kp, err := fabcrypto.GenerateKeyPair()
	if err != nil {
		return nil, fmt.Errorf("identity: issue %s: %w", subject, err)
	}
	cert := &Certificate{
		Subject: subject,
		Org:     ca.Org,
		Role:    role,
		PubKey:  kp.PublicKey(),
	}
	sig, err := ca.key.Sign(cert.tbs())
	if err != nil {
		return nil, fmt.Errorf("identity: sign cert for %s: %w", subject, err)
	}
	cert.CASig = sig
	return &Identity{Cert: cert, key: kp}, nil
}

// Verifier validates certificates and signatures against a set of trusted
// organization CAs. Every peer holds a Verifier constructed from the
// channel configuration.
type Verifier struct {
	mu  sync.RWMutex
	cas map[string]fabcrypto.PublicKey // org -> CA public key
	// gen counts CA-set mutations; VerifyCache entries record the
	// generation they were verified under and treat a mismatch as a
	// miss, so CA rotation can never resurrect a stale verdict.
	gen uint64
}

// NewVerifier creates an empty Verifier. CAs are added with TrustCA.
func NewVerifier() *Verifier {
	return &Verifier{cas: make(map[string]fabcrypto.PublicKey)}
}

// TrustCA registers an organization's CA public key.
func (v *Verifier) TrustCA(org string, pub fabcrypto.PublicKey) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.cas[org] = append(fabcrypto.PublicKey(nil), pub...)
	v.gen++
}

// Generation returns the number of CA-set mutations so far. Caches key
// their entries to it: any TrustCA call invalidates everything cached
// under earlier generations.
func (v *Verifier) Generation() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.gen
}

// TrustedOrgs returns the sorted list of organizations with registered CAs.
func (v *Verifier) TrustedOrgs() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	orgs := make([]string, 0, len(v.cas))
	for org := range v.cas {
		orgs = append(orgs, org)
	}
	sort.Strings(orgs)
	return orgs
}

// ValidateCertificate checks that cert was issued by the CA of the org it
// claims.
func (v *Verifier) ValidateCertificate(cert *Certificate) error {
	v.mu.RLock()
	caPub, ok := v.cas[cert.Org]
	v.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOrg, cert.Org)
	}
	if err := fabcrypto.Verify(caPub, cert.tbs(), cert.CASig); err != nil {
		return fmt.Errorf("%w: subject %q org %q", ErrBadCertificate, cert.Subject, cert.Org)
	}
	return nil
}

// VerifySignature checks that sig over msg was produced by the subject of
// cert, and that cert itself is valid.
func (v *Verifier) VerifySignature(cert *Certificate, msg, sig []byte) error {
	if err := v.ValidateCertificate(cert); err != nil {
		return err
	}
	if err := fabcrypto.Verify(cert.PubKey, msg, sig); err != nil {
		return fmt.Errorf("identity: signature by %q: %w", cert.Subject, err)
	}
	return nil
}
