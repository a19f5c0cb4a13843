// Package simnet is the virtual cluster hardware underneath the simulated
// NIC drivers: nodes, network adapters, in-order packet lanes, and SCI-style
// exported memory segments. It moves real bytes (payloads are delivered
// verbatim and verified by the test suites above it) while time is virtual:
// packets carry arrival stamps computed by the drivers from the calibrated
// models in internal/model.
package simnet

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"madeleine2/internal/model"
	"madeleine2/internal/vclock"
)

// World is a set of simulated nodes and the fabrics connecting them. All
// adapters attached to the same network name form a full crossbar (the
// drivers' cost models include the per-hop wire time).
type World struct {
	mu    sync.Mutex
	nodes []*Node
}

// NewWorld returns a world with n nodes (ranks 0..n-1), each with a default
// PCI bus model.
func NewWorld(n int) *World {
	w := &World{}
	for i := 0; i < n; i++ {
		w.nodes = append(w.nodes, &Node{
			id:    i,
			world: w,
			bus:   model.DefaultPCI(),
		})
	}
	return w
}

// Size reports the number of nodes.
func (w *World) Size() int { return len(w.nodes) }

// Node returns the node with the given rank; it panics on a bad rank, which
// is a configuration error.
func (w *World) Node(rank int) *Node {
	if rank < 0 || rank >= len(w.nodes) {
		panic(fmt.Sprintf("simnet: no node %d in a %d-node world", rank, len(w.nodes)))
	}
	return w.nodes[rank]
}

// Node is one simulated host: a rank, a PCI bus model, and a set of network
// adapters keyed by network name.
type Node struct {
	id       int
	world    *World
	bus      *model.PCIBus
	mu       sync.Mutex
	adapters map[string][]*Adapter
}

// ID reports the node's rank in its world.
func (n *Node) ID() int { return n.id }

// World returns the world the node belongs to.
func (n *Node) World() *World { return n.world }

// Bus returns the node's PCI bus model.
func (n *Node) Bus() *model.PCIBus { return n.bus }

// AddAdapter attaches a new adapter to the named network and returns it.
// A node may have several adapters on the same network (the paper's
// multi-adapter support) and adapters on different networks (a gateway).
func (n *Node) AddAdapter(network string) *Adapter {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.adapters == nil {
		n.adapters = make(map[string][]*Adapter)
	}
	size := n.world.Size()
	a := &Adapter{
		node:    n,
		network: network,
		index:   len(n.adapters[network]),
		tx:      vclock.NewResource(fmt.Sprintf("n%d/%s%d/tx", n.id, network, len(n.adapters[network]))),
		lanes:   make(map[laneKey]*RxLane),
		peers:   make([]atomic.Pointer[[]*Adapter], size),
		rx:      make([]atomic.Pointer[[]*RxLane], size),
	}
	n.adapters[network] = append(n.adapters[network], a)
	return a
}

// Adapter returns the node's idx-th adapter on the named network, or an
// error if it does not exist.
func (n *Node) Adapter(network string, idx int) (*Adapter, error) {
	as := n.on(network)
	if idx < 0 || idx >= len(as) {
		return nil, fmt.Errorf("simnet: node %d has no adapter %s[%d]", n.id, network, idx)
	}
	return as[idx], nil
}

// on returns the node's adapters on the named network so far. AddAdapter
// only appends, so the slice returned is never written again and may be
// kept and read without the lock.
func (n *Node) on(network string) []*Adapter {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.adapters[network]
}

// Networks lists the network names this node is attached to.
func (n *Node) Networks() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for name := range n.adapters {
		out = append(out, name)
	}
	return out
}

// laneKey identifies one in-order lane arriving at an adapter.
type laneKey struct {
	srcNode int
	lane    int
}

// Adapter is one simulated NIC. Its transmit engine is a serial virtual-time
// resource; its receive side is a set of in-order lanes, one per (source
// node, lane id) pair, mirroring per-connection NIC receive rings.
//
// Peers and lanes never go away once they exist, so the adapter keeps
// what it has resolved in two tables indexed by node rank: peers[d] the
// adapters of node d on this network, rx[s] the lanes from node s by lane
// id. Both are read with one atomic load and replaced whole by the slow
// path that fills them (rx under mu); a message takes no lock to find
// either.
type Adapter struct {
	node    *Node
	network string
	index   int
	tx      *vclock.Resource

	peers []atomic.Pointer[[]*Adapter]
	rx    []atomic.Pointer[[]*RxLane]

	mu       sync.Mutex
	lanes    map[laneKey]*RxLane // every lane; rx holds those with a small id
	segments map[uint32]*Segment

	bytesOut   atomic.Int64
	bytesIn    atomic.Int64
	pktsOut    atomic.Int64
	pktsIn     atomic.Int64
	corrupt    atomic.Bool
	corruptMin atomic.Int64
	faults     atomic.Pointer[faultState]
	driver     atomic.Value // the attached NIC driver's state; see AttachDriver
}

// Node returns the adapter's host node.
func (a *Adapter) Node() *Node { return a.node }

// Network reports the network name the adapter is attached to.
func (a *Adapter) Network() string { return a.network }

// Index reports the adapter's index among the node's adapters on the
// same network.
func (a *Adapter) Index() int { return a.index }

// AttachDriver installs st as the adapter's driver state unless one is
// installed already, and returns the installed one, so attaching twice
// yields the same state. A driver keeps its per-NIC state here and not in
// a table of its own: the state is then collected with the world.
func (a *Adapter) AttachDriver(st any) any {
	a.driver.CompareAndSwap(nil, st)
	return a.driver.Load()
}

// Driver returns the attached driver state, or nil before AttachDriver;
// a driver resolves its peer through the peer adapter's.
func (a *Adapter) Driver() any { return a.driver.Load() }

// TxEngine returns the adapter's transmit engine resource; drivers acquire
// it to serialize outgoing transfers in virtual time.
func (a *Adapter) TxEngine() *vclock.Resource { return a.tx }

// RxLane is one in-order receive lane and the NIC buffers behind it.
// Deliver copies each payload off the host into a buffer of the
// destination lane; the receiver may read it until it calls Done or its
// next Recv on the lane, and then the buffer serves a later Deliver. The
// free list holds only what was in flight at once, at most laneFreeMax;
// above laneBufMax a lane keeps at most one idle buffer, the largest one
// lent. A payload that arrived through Lend is the sender's and never
// joins them.
type RxLane struct {
	q *Queue[Packet]

	mu   sync.Mutex
	free [][]byte
	bulk []byte // the idle bulk buffer
	held []byte // payload of the packet the last Recv returned
}

const (
	laneBufMax  = 32 << 10 // SBP's kernel buffer; a larger payload takes the lane's one bulk buffer
	laneFreeMax = 8        // a credit window's worth; a deeper burst (async) allocates the rest
)

// buffer returns an empty buffer with room for n bytes, recycled when the
// lane has one. Capacities up to laneBufMax are powers of two, so mixed
// sizes still reuse; a bulk buffer is made at a multiple of laneBufMax, so
// a stream of bodies that vary within one multiple reuses it too.
func (l *RxLane) buffer(n int) []byte {
	var b []byte
	l.mu.Lock()
	if n > laneBufMax {
		b, l.bulk = l.bulk, nil
	} else if k := len(l.free) - 1; k >= 0 {
		b, l.free = l.free[k], l.free[:k]
	}
	l.mu.Unlock()
	if cap(b) < n {
		if n <= laneBufMax {
			n = max(64, 1<<bits.Len(uint(n-1)))
		} else {
			n = (n + laneBufMax - 1) / laneBufMax * laneBufMax
		}
		b = make([]byte, 0, n)
	}
	return b[:0]
}

// laneTableMax bounds the lane ids the rx table holds; a larger id (no
// driver uses one) is found in the lane map under the lock.
const laneTableMax = 1 << 10

// lane returns (creating) the lane from srcNode: one atomic load once it
// exists.
func (a *Adapter) lane(srcNode, lane int) *RxLane {
	if srcNode >= 0 && srcNode < len(a.rx) && lane >= 0 {
		if ls := a.rx[srcNode].Load(); ls != nil && lane < len(*ls) && (*ls)[lane] != nil {
			return (*ls)[lane]
		}
	}
	return a.newLane(srcNode, lane)
}

// newLane is lane's slow path: it finds or makes the lane in the map and
// publishes it in the rx table.
func (a *Adapter) newLane(srcNode, lane int) *RxLane {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := laneKey{srcNode, lane}
	l := a.lanes[k]
	if l == nil {
		l = &RxLane{q: NewQueue[Packet]()}
		a.lanes[k] = l
	}
	if srcNode >= 0 && srcNode < len(a.rx) && lane >= 0 && lane < laneTableMax {
		var old []*RxLane
		if p := a.rx[srcNode].Load(); p != nil {
			old = *p
		}
		ls := make([]*RxLane, max(len(old), lane+1))
		copy(ls, old)
		ls[lane] = l
		a.rx[srcNode].Store(&ls)
	}
	return l
}

// Recv blocks for the lane's next packet from srcNode: RxLane.Recv on a
// lane looked up by this call.
func (a *Adapter) Recv(srcNode, lane int) (Packet, bool) {
	return a.lane(srcNode, lane).Recv()
}

// RxLane resolves the lane from srcNode once, for a reader that keeps it:
// its Recv and Done take no lock on the adapter's lane map.
func (a *Adapter) RxLane(srcNode, lane int) *RxLane { return a.lane(srcNode, lane) }

// Recv blocks for the lane's next packet. Its payload is the NIC's receive
// buffer, lent until Done or the next Recv on the lane, which takes it
// back: callers copy out what they keep. ok is false once the lane is
// closed and drained.
func (l *RxLane) Recv() (Packet, bool) {
	p, ok := l.q.Pop()
	l.mu.Lock()
	l.takeBack()
	if !p.lent {
		l.held = p.Data
	}
	l.mu.Unlock()
	return p, ok
}

// Done hands the payload the last Recv lent back to the lane before the
// next Recv, so a Deliver that comes first reuses it instead of making a
// second buffer. The caller reads that payload no more.
func (l *RxLane) Done() {
	l.mu.Lock()
	l.takeBack()
	l.mu.Unlock()
}

// takeBack returns the lent payload to the lane's buffers. It runs under
// l.mu.
func (l *RxLane) takeBack() {
	if c := cap(l.held); c > laneBufMax {
		if c > cap(l.bulk) {
			l.bulk = l.held
		}
	} else if c > 0 && len(l.free) < laneFreeMax {
		l.free = append(l.free, l.held)
	}
	l.held = nil
}

// Peer resolves the idx-th adapter of dstNode on this adapter's network:
// one atomic load once it has been resolved. A rank outside the world or
// an index the node lacks is an error.
func (a *Adapter) Peer(dstNode, idx int) (*Adapter, error) {
	if dstNode >= 0 && dstNode < len(a.peers) && idx >= 0 {
		if as := a.peers[dstNode].Load(); as != nil && idx < len(*as) {
			return (*as)[idx], nil
		}
	}
	return a.resolvePeer(dstNode, idx)
}

// resolvePeer is Peer's slow path: it reads dstNode's adapters under the
// node's lock and publishes them in the peer table.
func (a *Adapter) resolvePeer(dstNode, idx int) (*Adapter, error) {
	w := a.node.world
	if dstNode < 0 || dstNode >= w.Size() {
		return nil, fmt.Errorf("simnet: no node %d in a %d-node world", dstNode, w.Size())
	}
	n := w.nodes[dstNode]
	as := n.on(a.network)
	a.peers[dstNode].Store(&as)
	if idx < 0 || idx >= len(as) {
		return nil, fmt.Errorf("simnet: node %d has no adapter %s[%d]", n.id, a.network, idx)
	}
	return as[idx], nil
}

// Deliver pushes a packet onto the destination adapter's lane and updates
// both adapters' traffic counters. The caller (a driver) has already
// stamped the packet's virtual times. The payload — p.Data followed by
// more, the gather of a writev — is copied into a buffer of the lane, as
// the NIC copies it off the host: the caller's memory is its own again on
// return. Any armed single-shot fault and the adapter's FaultPlan (if
// installed) strike here, on the way out.
func (a *Adapter) Deliver(dst *Adapter, lane int, p Packet, more ...[]byte) {
	n := len(p.Data)
	for _, m := range more {
		n += len(m)
	}
	l := dst.lane(a.node.id, lane)
	// The queued packet is built field by field: p.Data itself must not
	// reach the queue, or every caller's payload would escape to the heap.
	out := Packet{Inject: p.Inject, Arrive: p.Arrive, Tag: p.Tag}
	if n > 0 {
		out.Data = append(l.buffer(n), p.Data...)
		for _, m := range more {
			out.Data = append(out.Data, m...)
		}
	}
	a.push(dst, l, out)
}

// Lend is Deliver without the copy: the receiver's Recv returns p.Data
// itself, a buffer the sending protocol owns and takes back when the
// receiver is done with it (SBP's kernel buffers). The lane never recycles
// it, and the fabric never writes it: a fault that strikes delivers its
// own damaged copy instead.
func (a *Adapter) Lend(dst *Adapter, lane int, p Packet) {
	p.lent = true
	a.push(dst, dst.lane(a.node.id, lane), p)
}

// push is the common tail of Deliver and Lend: the faults strike, the
// counters move and the packet joins the lane.
func (a *Adapter) push(dst *Adapter, l *RxLane, p Packet) {
	p.Data = a.corruptOnce(p.Data)
	if fs := a.faults.Load(); fs != nil {
		var extra int64
		p.Data, extra = fs.strike(p.Data, p.Inject)
		p.Arrive += extra
	}
	a.bytesOut.Add(int64(len(p.Data)))
	a.pktsOut.Add(1)
	dst.bytesIn.Add(int64(len(p.Data)))
	dst.pktsIn.Add(1)
	l.q.Push(p)
}

// Stats reports cumulative traffic through the adapter.
func (a *Adapter) Stats() (bytesIn, bytesOut, pktsIn, pktsOut int64) {
	return a.bytesIn.Load(), a.bytesOut.Load(), a.pktsIn.Load(), a.pktsOut.Load()
}

// CorruptNext arms a single-shot fault: the next transfer carried by this
// adapter — a packet delivered through it, or a remote write landing in a
// segment it exports — has one payload byte flipped. Reliability is a
// property of the simulated interconnects, but the layers above carry
// integrity checks (the forwarding layer's packet checksums); fault
// injection exists to prove they fire. For a continuous, probabilistic
// fault process use SetFaults.
func (a *Adapter) CorruptNext() { a.CorruptNextMin(1) }

// CorruptNextMin arms the fault for the next carried transfer of at least
// min bytes (so a test can target payloads rather than tiny headers).
func (a *Adapter) CorruptNextMin(min int) {
	a.corruptMin.Store(int64(min))
	a.corrupt.Store(true)
}

// corruptOnce consumes an armed single-shot fault against data, returning
// the flipped copy (or data untouched when disarmed or below the floor).
func (a *Adapter) corruptOnce(data []byte) []byte {
	if len(data) == 0 || int64(len(data)) < a.corruptMin.Load() {
		return data
	}
	if !a.corrupt.CompareAndSwap(true, false) {
		return data
	}
	cp := append([]byte(nil), data...)
	cp[len(cp)/2] ^= 0xFF
	return cp
}

// Adapters lists every adapter of every node, in rank then network order —
// the hook bench worlds use to install one FaultPlan fabric-wide.
func (w *World) Adapters() []*Adapter {
	var out []*Adapter
	for _, n := range w.nodes {
		n.mu.Lock()
		names := make([]string, 0, len(n.adapters))
		for name := range n.adapters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, n.adapters[name]...)
		}
		n.mu.Unlock()
	}
	return out
}
