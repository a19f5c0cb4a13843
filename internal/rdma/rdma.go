// Package rdma implements a one-sided, verbs-style driver on top of the
// simulated fabric, in the mold of MPICH2-over-InfiniBand: all memory the
// HCA touches is registered first and addressed remotely by key, an RDMA
// Write lands bytes directly in the remote registered region with no
// receive descriptor consumed, and completions are observed in virtual
// time — the initiator from its send queue, the target by polling the
// region for incoming writes (the "poll the last byte" style of
// RDMA-write-based protocols).
//
// The driver deliberately shares the via package's registration
// lifecycle: Deregister is enforced, not advisory. Every data-path entry
// re-checks registration at delivery time, and a write racing a
// deregistration fails with an error instead of landing bytes in
// unpinned memory.
package rdma

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Network is the fabric name RDMA-capable adapters attach to.
const Network = "rdma"

// ErrNotRegistered reports use of an unregistered (or deregistered)
// memory region.
var ErrNotRegistered = errors.New("rdma: memory region not registered")

// ErrNoSuchRegion reports a remote key that resolves to no registered
// region on the target.
var ErrNoSuchRegion = errors.New("rdma: no region registered under key")

// ErrOutOfRange reports a Write or Read that falls outside the target
// region. Unlike the raw segment layer this is an error, not a panic:
// the offset comes off the wire from a peer, not from local driver code.
var ErrOutOfRange = errors.New("rdma: access outside registered region")

// ErrKeyInUse reports a Register with a key already registered locally.
var ErrKeyInUse = errors.New("rdma: region key already registered")

// HCA is one node's host channel adapter: the access point for
// registering memory and opening endpoints.
type HCA struct {
	adapter *simnet.Adapter
	mu      sync.Mutex
	regions map[uint32]*MemRegion
}

// Attach opens the RDMA provider on the idx-th rdma adapter of node n.
func Attach(n *simnet.Node, idx int) (*HCA, error) {
	a, err := n.Adapter(Network, idx)
	if err != nil {
		return nil, fmt.Errorf("rdma: %w", err)
	}
	h := &HCA{adapter: a, regions: make(map[uint32]*MemRegion)}
	return a.AttachDriver(h).(*HCA), nil
}

// Node reports the rank of the HCA's host.
func (h *HCA) Node() int { return h.adapter.Node().ID() }

// Index reports the HCA's adapter index on the rdma network.
func (h *HCA) Index() int { return h.adapter.Index() }

// Adapter returns the underlying simulated NIC.
func (h *HCA) Adapter() *simnet.Adapter { return h.adapter }

// MemRegion is a registered (pinned) region remotely addressable by its
// key. The mutex serializes incoming writes against Deregister so a
// write never lands after the region's completion stream has closed; the
// atomic flag lets lock-free readers (local sanity checks) observe the
// lifecycle. Remote writes may reach the first writable bytes only: the
// whole region unless its owner narrowed it with SetWritable.
type MemRegion struct {
	hca        *HCA
	key        uint32
	buf        []byte
	seg        *simnet.Segment
	mu         sync.Mutex
	registered atomic.Bool
	writable   atomic.Int64
}

// Register pins buf, exports it under the caller-chosen key, and charges
// the per-page registration cost. Keys are deterministic driver-side
// values (Madeleine's PMM derives them from channel/connection ids), not
// capabilities; the simulation needs reproducibility, not security.
func (h *HCA) Register(a *vclock.Actor, key uint32, buf []byte) (*MemRegion, error) {
	pages := (len(buf) + model.RDMAPageSize - 1) / model.RDMAPageSize
	if pages == 0 {
		pages = 1
	}
	a.Advance(vclock.Time(pages) * model.RDMARegister)
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.regions[key]; dup {
		return nil, fmt.Errorf("rdma: key %#x on node %d: %w", key, h.Node(), ErrKeyInUse)
	}
	m := &MemRegion{hca: h, key: key, buf: buf, seg: h.adapter.CreateSegmentOver(key, buf)}
	m.registered.Store(true)
	m.writable.Store(int64(len(buf)))
	h.regions[key] = m
	return m, nil
}

// Registered reports how many regions the HCA currently pins; a count
// that grows with traffic is a leaked registration.
func (h *HCA) Registered() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.regions)
}

// Bytes exposes the region's memory — the caller's own buffer; remote
// writes land here directly, which is what makes rendezvous zero-copy.
func (m *MemRegion) Bytes() []byte { return m.buf }

// Key reports the region's remote-access key.
func (m *MemRegion) Key() uint32 { return m.key }

// Size reports the region length in bytes.
func (m *MemRegion) Size() int { return m.seg.Size() }

// Registered reports whether the region is currently pinned.
func (m *MemRegion) Registered() bool { return m.registered.Load() }

// SetWritable bounds remote writes to the region's first n bytes; a Write
// reaching past them fails with ErrOutOfRange. A registration kept for
// several blocks narrows it to each block before the peer may write.
// n outside the region is a driver bug and panics.
func (m *MemRegion) SetWritable(n int) {
	if n < 0 || n > len(m.buf) {
		panic(fmt.Sprintf("rdma: %d writable bytes in %d-byte region %#x", n, len(m.buf), m.key))
	}
	m.writable.Store(int64(n))
}

// Deregister unpins the region, withdraws its key, and closes its
// completion stream (a blocked WaitWrite wakes with ErrNotRegistered
// once delivered writes drain). A second Deregister is an error.
func (m *MemRegion) Deregister() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.registered.CompareAndSwap(true, false) {
		return fmt.Errorf("rdma: deregister of already-deregistered region %#x: %w", m.key, ErrNotRegistered)
	}
	m.hca.mu.Lock()
	delete(m.hca.regions, m.key)
	m.hca.mu.Unlock()
	m.hca.adapter.RemoveSegment(m.key)
	return nil
}

// Completion describes one finished RDMA operation: for the target, a
// remote write that became visible; for the initiator, a Write whose last
// byte landed.
type Completion struct {
	Off    int
	Len    int
	Tag    uint64
	Arrive vclock.Time
}

// WaitWrite blocks for the next remote write into the region, in
// visibility order, and synchronizes the actor's clock to the arrival.
// It fails with ErrNotRegistered once the region has been deregistered
// and the already-delivered completions have drained.
func (m *MemRegion) WaitWrite(a *vclock.Actor) (Completion, error) {
	rec, ok := m.seg.Poll()
	if !ok {
		return Completion{}, fmt.Errorf("rdma: wait on deregistered region %#x: %w", m.key, ErrNotRegistered)
	}
	a.Sync(vclock.Time(rec.Arrive))
	return Completion{Off: rec.Off, Len: rec.Len, Tag: rec.Tag, Arrive: vclock.Time(rec.Arrive)}, nil
}

// EP is a one-sided endpoint toward one peer adapter. It carries no
// connection state beyond addressing — one-sided operations name their
// target by region key — plus the initiator-side completion queue.
type EP struct {
	hca    *HCA
	dst    int
	dstIdx int
	cq     *simnet.Queue[Completion]
}

// Dial opens an endpoint toward the idx-th rdma adapter of dstNode.
func (h *HCA) Dial(dstNode, dstIdx int) *EP {
	return &EP{hca: h, dst: dstNode, dstIdx: dstIdx, cq: simnet.NewQueue[Completion]()}
}

// remote resolves key to the peer's registered region.
func (e *EP) remote(key uint32) (*MemRegion, error) {
	pa, err := e.hca.adapter.Peer(e.dst, e.dstIdx)
	if err != nil {
		return nil, fmt.Errorf("rdma: %w", err)
	}
	peer, ok := pa.Driver().(*HCA)
	if !ok {
		return nil, fmt.Errorf("rdma: node %d has not attached to %s[%d]", e.dst, Network, e.dstIdx)
	}
	peer.mu.Lock()
	m := peer.regions[key]
	peer.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("rdma: key %#x on node %d: %w", key, e.dst, ErrNoSuchRegion)
	}
	return m, nil
}

// Write RDMA-writes data into the remote region key at offset off, within
// the region's writable bytes (see SetWritable). The initiating CPU pays
// only the doorbell half of the fixed cost; the HCA's transmit engine
// serializes the wire time and the write becomes visible to the target
// when the last byte lands. tag travels in the completion for matching.
// The visibility time is returned and also pushed onto the endpoint's
// send completion queue (see WaitSend).
//
// Delivery re-checks registration under the region's lifecycle lock: a
// Write racing the target's Deregister fails instead of landing bytes in
// unpinned memory. Writes pass through the target adapter's fault
// machinery, so a FaultPlan strikes RDMA payloads exactly as it strikes
// two-sided traffic.
func (e *EP) Write(a *vclock.Actor, key uint32, off int, data []byte, tag uint64, link model.Link) (vclock.Time, error) {
	m, err := e.remote(key)
	if err != nil {
		return 0, err
	}
	if w := int(m.writable.Load()); off < 0 || off+len(data) > w {
		return 0, fmt.Errorf("rdma: write [%d,%d) into region %#x writable to %d: %w",
			off, off+len(data), key, w, ErrOutOfRange)
	}
	a.Advance(link.Fixed / 2) // doorbell + WQE processing on the initiator
	start, _ := e.hca.adapter.TxEngine().Acquire(a.Now(), link.ByteTime(len(data)))
	arrive := start + link.Time(len(data)) - link.Fixed/2
	m.mu.Lock()
	if !m.registered.Load() {
		m.mu.Unlock()
		return 0, fmt.Errorf("rdma: write to region %#x deregistered before delivery: %w", key, ErrNotRegistered)
	}
	m.seg.Write(off, data, simnet.WriteRecord{
		Inject: int64(start),
		Arrive: int64(arrive),
		Tag:    tag,
	})
	m.mu.Unlock()
	e.cq.Push(Completion{Off: off, Len: len(data), Tag: tag, Arrive: arrive})
	return arrive, nil
}

// WaitSend blocks for the next initiator-side completion, in post order,
// and synchronizes the actor's clock to it — the moment the written data
// is remotely visible and the local buffer is reusable. ok is false once
// the endpoint is closed and drained.
func (e *EP) WaitSend(a *vclock.Actor) (Completion, bool) {
	c, ok := e.cq.Pop()
	if !ok {
		return Completion{}, false
	}
	a.Sync(c.Arrive)
	return c, true
}

// PollSend is the non-blocking WaitSend that moves no clock: it removes
// the oldest pending initiator-side completion, if there is one. Every
// Write queues a completion, so an initiator that never waits on its
// writes polls after each of them to keep the queue empty.
func (e *EP) PollSend() (Completion, bool) { return e.cq.TryPop() }

// Read RDMA-reads len(dst) bytes from the remote region at off. The
// initiator blocks for the full round trip: a control-frame request out,
// then the data streaming back through the transmit engine of the
// *target* (the data moves target→initiator). Reads do not pass the
// fault machinery — fault plans strike writes, the data path both
// protocols use — which keeps Read usable as a diagnostic peek.
func (e *EP) Read(a *vclock.Actor, key uint32, off int, dst []byte, link model.Link) error {
	m, err := e.remote(key)
	if err != nil {
		return err
	}
	if off < 0 || off+len(dst) > m.seg.Size() {
		return fmt.Errorf("rdma: read [%d,%d) from %d-byte region %#x: %w",
			off, off+len(dst), m.seg.Size(), key, ErrOutOfRange)
	}
	m.mu.Lock()
	if !m.registered.Load() {
		m.mu.Unlock()
		return fmt.Errorf("rdma: read from deregistered region %#x: %w", key, ErrNotRegistered)
	}
	a.Advance(model.RDMACtrl.Fixed) // the read request crossing to the target
	start, _ := m.hca.adapter.TxEngine().Acquire(a.Now(), link.ByteTime(len(dst)))
	a.Sync(start + link.Time(len(dst)))
	m.seg.Read(off, dst)
	m.mu.Unlock()
	return nil
}

// Close shuts the endpoint's send completion queue; a blocked WaitSend
// wakes with ok=false once delivered completions drain.
func (e *EP) Close() { e.cq.Close() }
