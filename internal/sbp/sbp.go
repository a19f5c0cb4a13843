// Package sbp re-implements the contract of SBP (Russell & Hatcher's
// kernel protocol for reliable communication), the paper's example of an
// interface that "requires data to be written in specific buffers before
// being sent" (§6.1): static buffers on BOTH the sending and the receiving
// side. It exists to exercise the forwarding layer's copy-avoidance matrix
// — with SBP on one side of a gateway, one extra copy is unavoidable.
//
// A kernel buffer crosses the simulated wire by reference: Send lends it
// to the destination lane, Recv hands the receiver that same buffer, and
// Release returns it to the sender's pool. A payload byte is copied into a
// kernel buffer by its sender and out of it by its receiver, and nowhere
// in between.
package sbp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Network is the fabric name SBP adapters attach to.
const Network = "sbpnet"

// BufSize is the fixed size of SBP's kernel static buffers.
const BufSize = model.SBPBufSize

// PoolSize is the number of static buffers an endpoint starts with. The
// pool never blocks: when every buffer is out, ObtainBuffer makes another
// and the pool keeps it, so a pool grows to its deepest burst in flight.
const PoolSize = 8

// Buf is one kernel static buffer. A sender obtains one, fills it and
// sends it; the receiver gets that same buffer from Recv and must Release
// it, which returns it to the sender's pool.
type Buf struct {
	data []byte
	in   []byte    // a fault's damaged copy of the payload, while received
	home *Endpoint // the endpoint that made it; its pool is the buffer's home
	id   uint64    // index in home's table; the packet's Tag carries it
}

// Bytes exposes the buffer's full capacity. On a received buffer that a
// fault struck in flight it is the damaged copy the fabric delivered: the
// fabric never writes the sender's buffer.
func (b *Buf) Bytes() []byte {
	if b.in != nil {
		return b.in
	}
	return b.data
}

// Endpoint is one node's SBP instance on one adapter.
type Endpoint struct {
	adapter *simnet.Adapter
	txPool  *simnet.Queue[*Buf] // the buffers at home

	mu    sync.Mutex                 // serializes making a buffer
	bufs  atomic.Pointer[[]*Buf]     // every buffer made, by id; replaced as it grows
	peers []atomic.Pointer[Endpoint] // senders by rank, resolved by the first Recv from each
}

// Attach opens SBP on the idx-th adapter of node n on the sbpnet fabric.
// Attaching twice to the same adapter returns the same Endpoint: the
// kernel keeps one buffer pool per adapter, and a receiver finds the
// sender's through the adapter.
func Attach(n *simnet.Node, idx int) (*Endpoint, error) {
	a, err := n.Adapter(Network, idx)
	if err != nil {
		return nil, fmt.Errorf("sbp: %w", err)
	}
	if e, ok := a.Driver().(*Endpoint); ok {
		return e, nil
	}
	e := &Endpoint{
		adapter: a,
		txPool:  simnet.NewQueue[*Buf](),
		peers:   make([]atomic.Pointer[Endpoint], n.World().Size()),
	}
	e.bufs.Store(new([]*Buf))
	for i := 0; i < PoolSize; i++ {
		e.txPool.Push(e.newBuf())
	}
	return a.AttachDriver(e).(*Endpoint), nil
}

// newBuf makes a buffer and enters it in the endpoint's table. Readers
// load the table without a lock: a buffer is in every table published
// after it was made, and growing the table never moves what a reader
// indexes.
func (e *Endpoint) newBuf() *Buf {
	e.mu.Lock()
	defer e.mu.Unlock()
	bufs := *e.bufs.Load()
	b := &Buf{data: make([]byte, BufSize), home: e, id: uint64(len(bufs))}
	bufs = append(bufs, b)
	e.bufs.Store(&bufs)
	return b
}

// Adapter returns the underlying simulated NIC.
func (e *Endpoint) Adapter() *simnet.Adapter { return e.adapter }

// Node reports the rank of the endpoint's host.
func (e *Endpoint) Node() int { return e.adapter.Node().ID() }

// ObtainBuffer takes a static send buffer from the kernel pool, or makes
// one when every buffer is out.
func (e *Endpoint) ObtainBuffer() *Buf {
	if b, ok := e.txPool.TryPop(); ok {
		return b
	}
	return e.newBuf()
}

// Release returns a buffer to its home pool: an unsent one to this
// endpoint's, a received one to its sender's.
func (e *Endpoint) Release(b *Buf) {
	b.in = nil
	b.home.txPool.Push(b)
}

// Outstanding reports how many of the buffers the endpoint made are away
// from home — obtained and not sent, or sent and not yet released by the
// receiver — and how many it made.
func (e *Endpoint) Outstanding() (away, made int) {
	made = len(*e.bufs.Load())
	return made - e.txPool.Len(), made
}

// Send lends the first n bytes of the static buffer to (dst, lane): the
// receiver's Recv returns this very buffer, and its Release brings it
// home. The buffer is the kernel's from the call on; a send that fails
// releases it at once.
func (e *Endpoint) Send(a *vclock.Actor, dst, lane int, b *Buf, n int) error {
	if n > len(b.data) {
		e.Release(b)
		return fmt.Errorf("sbp: payload %d exceeds static buffer size %d", n, len(b.data))
	}
	pa, err := e.adapter.Peer(dst, e.adapter.Index())
	if err != nil {
		e.Release(b)
		return fmt.Errorf("sbp: %w", err)
	}
	start, _ := e.adapter.TxEngine().Acquire(a.Now(), model.SBP.ByteTime(n))
	arrive := start + model.SBP.Time(n)
	e.adapter.Lend(pa, lane, simnet.Packet{Data: b.data[:n], Inject: int64(start), Arrive: int64(arrive), Tag: b.id})
	return nil
}

// Recv blocks for the next message from (src, lane) and returns the
// sender's buffer it arrived in, with the payload length. The caller must
// Release the buffer after consuming it.
func (e *Endpoint) Recv(a *vclock.Actor, src, lane int) (*Buf, int, error) {
	pkt, ok := e.adapter.Recv(src, lane)
	if !ok {
		return nil, 0, fmt.Errorf("sbp: endpoint closed")
	}
	from, err := e.peer(src)
	if err != nil {
		return nil, 0, err
	}
	b := (*from.bufs.Load())[pkt.Tag]
	if n := len(pkt.Data); n > 0 && &pkt.Data[0] != &b.data[0] {
		b.in = pkt.Data
	}
	a.Sync(vclock.Time(pkt.Arrive))
	return b, len(pkt.Data), nil
}

// peer resolves the endpoint on node src that sends to this one. Only the
// first Recv from src looks it up; later ones load it.
func (e *Endpoint) peer(src int) (*Endpoint, error) {
	if p := e.peers[src].Load(); p != nil {
		return p, nil
	}
	pa, err := e.adapter.Peer(src, e.adapter.Index())
	if err != nil {
		return nil, fmt.Errorf("sbp: %w", err)
	}
	p, ok := pa.Driver().(*Endpoint)
	if !ok {
		return nil, fmt.Errorf("sbp: node %d has not attached to %s[%d]", src, Network, e.adapter.Index())
	}
	e.peers[src].Store(p)
	return p, nil
}
