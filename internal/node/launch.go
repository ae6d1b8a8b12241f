package node

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/netconfig"
	"repro/internal/wire"
)

// proc is one spawned role process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.Reader
	addr   string
}

// stopGrace is how long Stop waits, for all roles together, between
// closing their stdins and killing whichever are still running.
const stopGrace = 3 * time.Second

func (p *proc) waitReady() error {
	addr, err := WaitReady(p.stdout)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	p.addr = addr
	return nil
}

// LaunchOptions configure LaunchCluster.
type LaunchOptions struct {
	// Self is the binary to re-execute for each role; it must call
	// RunRoleFromEnv before anything else (pdcnet's main and the
	// cluster test's TestMain both do). Defaults to os.Executable().
	Self string
	// Dir is where material.json and netconfig.json are written; the
	// caller owns cleanup. Required.
	Dir string
	// TLS enables pinned-key TLS between every process.
	TLS bool
	// Codec is single-valued (empty or wire.CodecBinary; anything else
	// is rejected). It is retained only for benchmark/sut.go, which sets
	// it and may not be edited; it selects nothing.
	Codec wire.Codec
	// Stderr, when non-nil, receives every child's stderr.
	Stderr io.Writer
	// SkipPeers names topology peers NOT spawned at launch. They keep a
	// reserved address and are withheld from the running roles' peer
	// lists (so startup dials never block on them); start one later with
	// JoinPeer — the late-joiner path.
	SkipPeers []string
}

// Cluster is a running multi-process deployment: one orderer, every
// configured peer, and one gateway, each a separate OS process.
type Cluster struct {
	Config      *netconfig.Config
	Material    *netconfig.Material
	GatewayName string
	OrdererAddr string
	GatewayAddr string
	PeerAddrs   map[string]string
	procs       []*proc
	tls         bool

	// Spawn context kept for JoinPeer.
	self         string
	configPath   string
	materialPath string
	stderr       io.Writer
	skipped      map[string]string
}

// DialGateway opens a wire client to the cluster's gateway process.
func (cl *Cluster) DialGateway() (*wire.GatewayClient, error) {
	c, err := cl.dial(cl.GatewayAddr, cl.GatewayName)
	if err != nil {
		return nil, err
	}
	return wire.NewGatewayClient(c), nil
}

// DialPeer opens a wire client to one of the cluster's peer processes.
func (cl *Cluster) DialPeer(name string) (*wire.PeerClient, error) {
	addr, ok := cl.PeerAddrs[name]
	if !ok {
		return nil, fmt.Errorf("node: no peer %q in cluster", name)
	}
	c, err := cl.dial(addr, name)
	if err != nil {
		return nil, err
	}
	return wire.NewPeerClient(c)
}

// DialOrderer opens a wire client to the cluster's orderer process.
func (cl *Cluster) DialOrderer() (*wire.OrdererClient, error) {
	c, err := cl.dial(cl.OrdererAddr, netconfig.OrdererNode)
	if err != nil {
		return nil, err
	}
	return wire.NewOrdererClient(c), nil
}

// PeerNames returns the cluster's peer node names, sorted.
func (cl *Cluster) PeerNames() []string { return sortedNames(cl.PeerAddrs) }

func (cl *Cluster) dial(addr, serverName string) (*wire.Client, error) {
	copts := wire.ClientOptions{}
	if cl.tls {
		id, err := cl.Material.Identity(cl.GatewayName)
		if err != nil {
			return nil, err
		}
		key, err := cl.Material.ServerKey(serverName)
		if err != nil {
			return nil, err
		}
		copts.Identity, copts.ServerKey = id, key
	}
	return wire.Dial(addr, copts)
}

// LaunchCluster writes config+material under opts.Dir, reserves
// loopback ports (explicit cfg.Wire addresses win), and spawns every
// role of the topology, returning once all printed READY.
func LaunchCluster(cfg *netconfig.Config, opts LaunchOptions) (*Cluster, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("node: LaunchCluster needs a Dir")
	}
	if opts.Codec != "" && opts.Codec != wire.CodecBinary {
		return nil, fmt.Errorf("node: unknown wire codec %q (the only encoding is %q)", opts.Codec, wire.CodecBinary)
	}
	self := opts.Self
	if self == "" {
		var err error
		self, err = os.Executable()
		if err != nil {
			return nil, err
		}
	}
	material, err := cfg.GenerateMaterial()
	if err != nil {
		return nil, err
	}
	materialPath := filepath.Join(opts.Dir, "material.json")
	if err := material.Save(materialPath); err != nil {
		return nil, err
	}
	cfgData, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, err
	}
	configPath := filepath.Join(opts.Dir, "netconfig.json")
	if err := os.WriteFile(configPath, cfgData, 0o644); err != nil {
		return nil, err
	}

	peersPerOrg := cfg.PeersPerOrg
	if peersPerOrg <= 0 {
		peersPerOrg = 1
	}
	var peerNames []string
	for _, org := range cfg.Orgs {
		for i := 0; i < peersPerOrg; i++ {
			peerNames = append(peerNames, fmt.Sprintf("peer%d.%s", i, org))
		}
	}
	sort.Strings(peerNames)

	ports, err := FreePorts(len(peerNames) + 2)
	if err != nil {
		return nil, err
	}
	ordererAddr, gatewayAddr := ports[len(ports)-2], ports[len(ports)-1]
	peerAddrs := make(map[string]string, len(peerNames))
	for i, name := range peerNames {
		peerAddrs[name] = ports[i]
	}
	tlsOn := opts.TLS
	if w := cfg.Wire; w != nil {
		if w.Orderer != "" {
			ordererAddr = w.Orderer
		}
		if w.Gateway != "" {
			gatewayAddr = w.Gateway
		}
		for name, addr := range w.Peers {
			peerAddrs[name] = addr
		}
		if w.TLS {
			tlsOn = true
		}
	}

	// Hold the skipped peers back: reserve their addresses for a later
	// JoinPeer, but keep them out of every running role's peer list so
	// startup dials never wait on a process that does not exist.
	skipped := make(map[string]string, len(opts.SkipPeers))
	for _, name := range opts.SkipPeers {
		addr, ok := peerAddrs[name]
		if !ok {
			return nil, fmt.Errorf("node: SkipPeers names unknown peer %q", name)
		}
		skipped[name] = addr
		delete(peerAddrs, name)
	}
	launchNames := make([]string, 0, len(peerNames))
	for _, name := range peerNames {
		if _, skip := skipped[name]; !skip {
			launchNames = append(launchNames, name)
		}
	}

	cl := &Cluster{
		Config:       cfg,
		Material:     material,
		GatewayName:  "client0." + cfg.Orgs[0],
		OrdererAddr:  ordererAddr,
		GatewayAddr:  gatewayAddr,
		PeerAddrs:    peerAddrs,
		tls:          tlsOn,
		self:         self,
		configPath:   configPath,
		materialPath: materialPath,
		stderr:       opts.Stderr,
		skipped:      skipped,
	}
	fail := func(err error) (*Cluster, error) {
		cl.Stop()
		return nil, err
	}
	if err := cl.spawn("orderer", netconfig.OrdererNode, ordererAddr, peerAddrs, ""); err != nil {
		return fail(err)
	}
	for _, name := range launchNames {
		if err := cl.spawn("peer", name, peerAddrs[name], peerAddrs, ""); err != nil {
			return fail(err)
		}
	}
	if err := cl.spawn("gateway", cl.GatewayName, gatewayAddr, peerAddrs, ""); err != nil {
		return fail(err)
	}
	// Only now wait for READY: peers block on dialing each other's
	// gossip listeners during startup, so all processes must exist
	// before any is waited on.
	for _, p := range cl.procs {
		if err := p.waitReady(); err != nil {
			return fail(err)
		}
	}
	return cl, nil
}

// spawn starts one role process with the cluster's stored launch
// context and appends it to the teardown list (READY not yet awaited).
func (cl *Cluster) spawn(role, name, listen string, peerAddrs map[string]string, snapshotFrom string) error {
	env := map[string]string{
		EnvRole:     role,
		EnvConfig:   cl.configPath,
		EnvMaterial: cl.materialPath,
		EnvName:     name,
		EnvListen:   listen,
		EnvOrderer:  cl.OrdererAddr,
		EnvPeers:    FormatPeerAddrs(peerAddrs),
	}
	if cl.tls {
		env[EnvTLS] = "1"
	}
	if snapshotFrom != "" {
		env[EnvSnapshotFrom] = snapshotFrom
	}
	cmd := exec.Command(cl.self)
	cmd.Env = os.Environ()
	for k, v := range env {
		cmd.Env = append(cmd.Env, k+"="+v)
	}
	cmd.Stderr = cl.stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("node: spawn %s: %w", name, err)
	}
	cl.procs = append(cl.procs, &proc{name: name, cmd: cmd, stdin: stdin, stdout: stdout})
	return nil
}

// JoinPeer starts a peer that was held back with SkipPeers, wired to
// every running peer. snapshotFrom, when non-empty, names the peer the
// joiner bootstraps from if the orderer's log is compacted past its
// height (empty picks the first running peer in sorted order). On
// return the peer is READY and appears in PeerAddrs / DialPeer.
func (cl *Cluster) JoinPeer(name, snapshotFrom string) error {
	addr, ok := cl.skipped[name]
	if !ok {
		return fmt.Errorf("node: JoinPeer: %q was not held back at launch", name)
	}
	peers := make(map[string]string, len(cl.PeerAddrs)+1)
	for n, a := range cl.PeerAddrs {
		peers[n] = a
	}
	peers[name] = addr
	if err := cl.spawn("peer", name, addr, peers, snapshotFrom); err != nil {
		return err
	}
	if err := cl.procs[len(cl.procs)-1].waitReady(); err != nil {
		return err
	}
	delete(cl.skipped, name)
	cl.PeerAddrs[name] = addr
	return nil
}

// Stop tears the cluster down the way LaunchCluster brings it up: every
// role is asked to exit (its stdin closes) before any is waited on, all
// share one stopGrace, and whichever are still running then are killed.
func (cl *Cluster) Stop() {
	exited := make([]chan struct{}, len(cl.procs))
	for i, p := range cl.procs {
		p.stdin.Close()
		exited[i] = make(chan struct{})
		go func() { p.cmd.Wait(); close(exited[i]) }()
	}
	grace := time.After(stopGrace)
	for i := range cl.procs {
		select {
		case <-exited[i]:
		case <-grace:
			for _, p := range cl.procs[i:] {
				p.cmd.Process.Kill()
			}
			grace = nil // spent; the killed roles are only reaped from here on
			<-exited[i]
		}
	}
	cl.procs = nil
}

// TLS reports whether the cluster runs with pinned-key TLS.
func (cl *Cluster) TLS() bool { return cl.tls }
