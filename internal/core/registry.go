package core

import (
	"fmt"
	"sort"
	"sync"

	"madeleine2/internal/bip"
	"madeleine2/internal/rdma"
	"madeleine2/internal/sbp"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/via"
)

// DriverDef is an externally registered protocol module — the mechanism
// behind optional Madeleine modules such as the MPI port ("Madeleine II
// has also been ported quite straightforwardly on top of MPI", §5.3).
//
// New returns a PMM. Its TMs are normally movers — the half of Table 2 the
// transfer method uses — wrapped once, in New, by NewDynamicTM or
// NewStaticTM; the wrapper is the TM identity the core compares, so Select
// must keep returning that same value. A module may instead implement all
// of TM itself and pick its BMM with one of the New…BMM constructors.
//
// Ownership contract. Per-message state lives in core (each Connection
// carries its own message descriptor); a driver's ConnState.Priv holds only
// long-lived per-connection resources. Core serializes access per
// direction with virtual-time leases: every send-path TM method (NewBMM for
// a send BMM, ObtainStaticBuffer, SendBuffer, SendBufferGroup, Announce)
// runs under the connection's send lease, and every receive-path method
// (ReceiveStaticBuffer, ReleaseStaticBuffer, ReceiveBuffer,
// ReceiveSubBufferGroup) under its receive lease. A driver therefore sees
// at most one in-flight message per connection per direction, but must
// tolerate a send and a receive on the SAME connection running
// concurrently (full duplex), and distinct connections of one channel being
// driven by distinct actors in parallel. Concretely: partition any state
// cached in Priv by direction (see the built-in PMMs — e.g. creditWindow's
// avail vs consumed, sbpConn's sendBufs vs recvBufs), and make any state
// shared across connections (the PMM instance itself, the underlying
// fabric endpoint) safe for concurrent use.
type DriverDef struct {
	// Name is the ChannelSpec.Driver value selecting the module.
	Name string
	// Probe reports whether a node can host the module (membership
	// detection for ChannelSpec.Nodes == nil).
	Probe func(node *simnet.Node, adapter int) error
	// New instantiates the module for one channel on one node.
	New func(node *simnet.Node, adapter, chanID int) (PMM, error)
}

var (
	extMu      sync.Mutex
	extDrivers = map[string]DriverDef{}
)

// RegisterDriver installs an external protocol module. Built-in names
// cannot be shadowed.
func RegisterDriver(d DriverDef) error {
	if d.Name == "" || d.New == nil || d.Probe == nil {
		return fmt.Errorf("core: incomplete driver definition %q", d.Name)
	}
	if _, err := NetworkOf(d.Name); err == nil {
		return fmt.Errorf("core: driver %q would shadow a built-in module", d.Name)
	}
	extMu.Lock()
	defer extMu.Unlock()
	if _, dup := extDrivers[d.Name]; dup {
		return fmt.Errorf("core: driver %q already registered", d.Name)
	}
	extDrivers[d.Name] = d
	return nil
}

// UnregisterDriver removes an external module (tests and teardown).
func UnregisterDriver(name string) {
	extMu.Lock()
	defer extMu.Unlock()
	delete(extDrivers, name)
}

// externalDriver looks an external module up.
func externalDriver(name string) (DriverDef, bool) {
	extMu.Lock()
	defer extMu.Unlock()
	d, ok := extDrivers[name]
	return d, ok
}

// externalNames lists registered external modules, sorted.
func externalNames() []string {
	extMu.Lock()
	defer extMu.Unlock()
	var out []string
	for n := range extDrivers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// builtins is the one list of built-in protocol modules: the
// ChannelSpec.Driver name, the fabric the module drives and its
// constructor. They match the paper's "it currently runs on top of BIP,
// SISCI, TCP, VIA" (§7) plus the SBP static-buffer protocol of §6.1 and
// the one-sided RDMA module of the ROADMAP. "sisci-dma" selects the SISCI
// PMM with its (normally disabled) DMA transmission module active;
// "sisci-nodual" disables the adaptive dual-buffering TM (ablation);
// "rdma-eager" and "rdma-rdv" pin the RDMA PMM's Switch decision to one
// protocol (crossover ablation).
var builtins = []struct {
	name, network string
	new           func(node *simnet.Node, adapter, chanID int) (PMM, error)
}{
	{"bip", bip.Network, newBIPPMM},
	{"sisci", sisci.Network, func(n *simnet.Node, a, id int) (PMM, error) { return newSISCIPMM(n, a, id, false, false) }},
	{"sisci-dma", sisci.Network, func(n *simnet.Node, a, id int) (PMM, error) { return newSISCIPMM(n, a, id, true, false) }},
	{"sisci-nodual", sisci.Network, func(n *simnet.Node, a, id int) (PMM, error) { return newSISCIPMM(n, a, id, false, true) }},
	{"tcp", tcpnet.Network, newTCPPMM},
	{"via", via.Network, newVIAPMM},
	{"sbp", sbp.Network, newSBPPMM},
	{"rdma", rdma.Network, func(n *simnet.Node, a, id int) (PMM, error) { return newRDMAPMM(n, a, id, "") }},
	{"rdma-eager", rdma.Network, func(n *simnet.Node, a, id int) (PMM, error) { return newRDMAPMM(n, a, id, "eager") }},
	{"rdma-rdv", rdma.Network, func(n *simnet.Node, a, id int) (PMM, error) { return newRDMAPMM(n, a, id, "rdv") }},
}

// Drivers lists the protocol modules the library supports: the built-in
// ones, then the externally registered ones.
func Drivers() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return append(names, externalNames()...)
}

// NetworkOf maps a built-in driver name to its fabric name.
func NetworkOf(driver string) (string, error) {
	for _, b := range builtins {
		if b.name == driver {
			return b.network, nil
		}
	}
	return "", fmt.Errorf("core: unknown driver %q (have %v)", driver, Drivers())
}

// newPMM instantiates the protocol module for a channel on one node.
func newPMM(driver string, node *simnet.Node, adapter, chanID int) (PMM, error) {
	for _, b := range builtins {
		if b.name == driver {
			return b.new(node, adapter, chanID)
		}
	}
	if d, ok := externalDriver(driver); ok {
		return d.New(node, adapter, chanID)
	}
	_, err := NetworkOf(driver)
	return nil, err
}

// newPMMProbe reports whether the node could host the driver (it has the
// adapter), without instantiating anything.
func newPMMProbe(driver string, node *simnet.Node, adapter int) (string, error) {
	if d, ok := externalDriver(driver); ok {
		if err := d.Probe(node, adapter); err != nil {
			return "", err
		}
		return driver, nil
	}
	net, err := NetworkOf(driver)
	if err != nil {
		return "", err
	}
	if _, err := node.Adapter(net, adapter); err != nil {
		return "", err
	}
	return net, nil
}
