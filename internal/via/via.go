// Package via re-implements the contract of the Virtual Interface
// Architecture (Dunning et al., IEEE Micro 1998), one of the non
// message-passing interfaces whose support motivated the Madeleine II
// redesign, on top of the simulated fabric.
//
// The VIA model: communication happens over connected Virtual Interfaces
// (VIs). All memory touched by the NIC must be registered (pinned) first.
// The receiver pre-posts receive descriptors pointing at registered
// regions; a send consumes the head posted descriptor at the peer — if none
// is posted the reliable-delivery VI breaks (ErrReceiverNotReady).
// Completions are reaped from a completion queue.
package via

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Network is the fabric name VIA adapters attach to.
const Network = "via"

// ErrReceiverNotReady reports a send that found no posted receive
// descriptor at the peer; on a reliable-delivery VI this is fatal for the
// connection, so callers (Madeleine's VIA PMM) pre-post conservatively.
var ErrReceiverNotReady = errors.New("via: receiver not ready (no posted descriptor)")

// ErrNotRegistered reports use of an unregistered memory region.
var ErrNotRegistered = errors.New("via: memory region not registered")

// ErrTooSmall reports a posted receive descriptor smaller than the payload.
var ErrTooSmall = errors.New("via: posted descriptor smaller than payload")

// ErrVIClosed reports an operation on a VI whose endpoint has been closed:
// a WaitRecv finding the completion stream ended, or a send racing the
// receiver's teardown.
var ErrVIClosed = errors.New("via: VI closed")

// NIC is one node's VIA provider instance.
type NIC struct {
	adapter *simnet.Adapter
	mu      sync.Mutex
	vis     map[int]*VI
	pinned  atomic.Int64 // regions registered and not yet deregistered
}

// Attach opens the VIA provider on the idx-th VIA adapter of node n.
func Attach(n *simnet.Node, idx int) (*NIC, error) {
	a, err := n.Adapter(Network, idx)
	if err != nil {
		return nil, fmt.Errorf("via: %w", err)
	}
	nic := &NIC{adapter: a, vis: make(map[int]*VI)}
	return a.AttachDriver(nic).(*NIC), nil
}

// Node reports the rank of the NIC's host.
func (n *NIC) Node() int { return n.adapter.Node().ID() }

// Index reports the NIC's adapter index on the VIA network.
func (n *NIC) Index() int { return n.adapter.Index() }

// MemRegion is a registered (pinned) memory region. The registration flag
// is atomic because the two ends of a VI legitimately race: a sender
// consuming a posted descriptor re-checks its registration at delivery
// time while the receiver may be deregistering it.
type MemRegion struct {
	nic        *NIC
	buf        []byte
	registered atomic.Bool
}

// Bytes exposes the region's memory.
func (m *MemRegion) Bytes() []byte { return m.buf }

// Registered reports whether the region is currently pinned.
func (m *MemRegion) Registered() bool { return m.registered.Load() }

// Register pins buf for NIC access, charging the per-page registration
// cost to the actor. The region is buf itself: a caller that means to
// keep the registration for later blocks from the same memory registers
// buf[:cap(buf)] and posts or sends only what each block needs.
func (n *NIC) Register(a *vclock.Actor, buf []byte) *MemRegion {
	pages := (len(buf) + model.VIAPageSize - 1) / model.VIAPageSize
	if pages == 0 {
		pages = 1
	}
	a.Advance(vclock.Time(pages) * model.VIARegister)
	m := &MemRegion{nic: n, buf: buf}
	m.registered.Store(true)
	n.pinned.Add(1)
	return m
}

// Registered reports how many regions the NIC currently pins; a count
// that grows with traffic is a leaked registration.
func (n *NIC) Registered() int { return int(n.pinned.Load()) }

// Deregister unpins the region; further NIC use — posting it, sending
// from it, or delivering into it — fails with ErrNotRegistered. A second
// Deregister is itself an error: the double release is a lifecycle bug
// the caller wants to hear about.
func (m *MemRegion) Deregister() error {
	if !m.registered.CompareAndSwap(true, false) {
		return fmt.Errorf("via: deregister of already-deregistered region: %w", ErrNotRegistered)
	}
	m.nic.pinned.Add(-1)
	return nil
}

// descriptor is one posted receive: a registered region and the length
// of it the NIC may fill. A region registered past the block it is posted
// for (a kept registration) takes no more than the descriptor allows.
type descriptor struct {
	region *MemRegion
	n      int
}

// completion is one entry of a VI's receive completion queue.
type completion struct {
	region *MemRegion
	n      int
	arrive vclock.Time
}

// VI is one endpoint of a connected Virtual Interface pair. Both sides
// create a VI with the same id to form the connection.
type VI struct {
	nic    *NIC
	id     int
	dst    int // peer node
	dstIdx int // peer adapter index
	posted *simnet.Queue[descriptor]
	comps  *simnet.Queue[completion]

	peer atomic.Pointer[VI] // the mirror endpoint, once resolved
}

// CreateVI creates (or returns) the local endpoint of VI id connected to
// (dstNode, dstIdx). The peer must create the mirror endpoint before
// traffic flows toward it.
func (n *NIC) CreateVI(id, dstNode, dstIdx int) *VI {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v, ok := n.vis[id]; ok {
		return v
	}
	v := &VI{
		nic:    n,
		id:     id,
		dst:    dstNode,
		dstIdx: dstIdx,
		posted: simnet.NewQueue[descriptor](),
		comps:  simnet.NewQueue[completion](),
	}
	n.vis[id] = v
	return v
}

// peerVI resolves the mirror endpoint of this VI. A VI is never
// destroyed, so only the first send looks it up; later ones load it.
func (v *VI) peerVI() (*VI, error) {
	if pv := v.peer.Load(); pv != nil {
		return pv, nil
	}
	pa, err := v.nic.adapter.Peer(v.dst, v.dstIdx)
	if err != nil {
		return nil, err
	}
	peer, ok := pa.Driver().(*NIC)
	if !ok {
		return nil, fmt.Errorf("via: node %d has not attached to %s[%d]", v.dst, Network, v.dstIdx)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	pv, ok := peer.vis[v.id]
	if !ok {
		return nil, fmt.Errorf("via: peer node %d has no VI %d", v.dst, v.id)
	}
	v.peer.Store(pv)
	return pv, nil
}

// PostRecv appends a descriptor for the whole of a registered region to
// the VI's receive descriptor queue.
func (v *VI) PostRecv(m *MemRegion) error { return v.PostRecvN(m, len(m.buf)) }

// PostRecvN posts a descriptor for the first n bytes of m: a send larger
// than n fails with ErrTooSmall, however long the region is.
func (v *VI) PostRecvN(m *MemRegion, n int) error {
	if !m.registered.Load() {
		return ErrNotRegistered
	}
	if n < 0 || n > len(m.buf) {
		return fmt.Errorf("via: descriptor of %d bytes over a %d-byte region", n, len(m.buf))
	}
	if !v.posted.PushIfOpen(descriptor{m, n}) {
		return ErrVIClosed
	}
	return nil
}

// PostedRecvs reports the current depth of the receive descriptor queue.
func (v *VI) PostedRecvs() int { return v.posted.Len() }

// Send transmits the first n bytes of region m to the peer, consuming the
// peer's head posted descriptor. link selects the send path's cost model
// (descriptor send vs RDMA-style large transfer).
func (v *VI) Send(a *vclock.Actor, m *MemRegion, n int, link model.Link) error {
	if !m.registered.Load() {
		return ErrNotRegistered
	}
	pv, err := v.peerVI()
	if err != nil {
		return err
	}
	d, ok := pv.posted.TryPop()
	if !ok {
		return ErrReceiverNotReady
	}
	dst := d.region
	// Delivery-time re-check: the descriptor was registered when posted,
	// but the receiver may have unpinned it since. The NIC must not DMA
	// into unpinned memory; on a reliable-delivery VI the consumed
	// descriptor is gone either way.
	if !dst.registered.Load() {
		return fmt.Errorf("via: posted descriptor deregistered before delivery: %w", ErrNotRegistered)
	}
	if d.n < n {
		return ErrTooSmall
	}
	a.Advance(link.Fixed / 2) // doorbell + descriptor processing on the host
	start, _ := v.nic.adapter.TxEngine().Acquire(a.Now(), link.ByteTime(n))
	arrive := start + link.Time(n) - link.Fixed/2 // the other half of the fixed cost is wire-side
	copy(dst.buf, m.buf[:n])
	if !pv.comps.PushIfOpen(completion{region: dst, n: n, arrive: arrive}) {
		return ErrVIClosed
	}
	return nil
}

// WaitRecv blocks for the next receive completion, synchronizes the
// actor's clock to the arrival, and returns the filled region and length.
func (v *VI) WaitRecv(a *vclock.Actor) (*MemRegion, int, error) {
	c, ok := v.comps.Pop()
	if !ok {
		return nil, 0, ErrVIClosed
	}
	// The data landed while the descriptor was pinned, but if the region
	// has been unpinned since, handing it out as a live NIC buffer would
	// resurrect it; fail the reap instead.
	if !c.region.registered.Load() {
		return nil, 0, fmt.Errorf("via: completion for deregistered region: %w", ErrNotRegistered)
	}
	a.Sync(c.arrive)
	return c.region, c.n, nil
}

// Close shuts the VI down and returns the receive descriptors that were
// posted but never consumed, so the caller can reclaim (deregister,
// recycle) their buffers. A WaitRecv blocked on the completion queue is
// woken and fails with ErrVIClosed once the already-delivered completions
// drain; without the explicit close error it would block its vclock actor
// forever.
func (v *VI) Close() []*MemRegion {
	v.posted.Close()
	v.comps.Close()
	var unposted []*MemRegion
	for {
		d, ok := v.posted.TryPop()
		if !ok {
			return unposted
		}
		unposted = append(unposted, d.region)
	}
}
