// Package sbp re-implements the contract of SBP (Russell & Hatcher's
// kernel protocol for reliable communication), the paper's example of an
// interface that "requires data to be written in specific buffers before
// being sent" (§6.1): static buffers on BOTH the sending and the receiving
// side. It exists to exercise the forwarding layer's copy-avoidance matrix
// — with SBP on one side of a gateway, one extra copy is unavoidable.
package sbp

import (
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Network is the fabric name SBP adapters attach to.
const Network = "sbpnet"

// BufSize is the fixed size of SBP's kernel static buffers.
const BufSize = model.SBPBufSize

// PoolSize is the number of static buffers per endpoint direction.
const PoolSize = 8

// Buf is one kernel static buffer. Senders obtain one, fill it, and send
// it; receivers get one from Recv and must Release it back to the pool.
type Buf struct {
	data []byte
	home *simnet.Queue[*Buf]
}

// Bytes exposes the buffer's full capacity.
func (b *Buf) Bytes() []byte { return b.data }

// Endpoint is one node's SBP instance.
type Endpoint struct {
	adapter *simnet.Adapter
	txPool  *simnet.Queue[*Buf]
	rxPool  *simnet.Queue[*Buf]
}

// Attach opens SBP on the idx-th adapter of node n on the sbpnet fabric.
func Attach(n *simnet.Node, idx int) (*Endpoint, error) {
	a, err := n.Adapter(Network, idx)
	if err != nil {
		return nil, fmt.Errorf("sbp: %w", err)
	}
	e := &Endpoint{adapter: a, txPool: simnet.NewQueue[*Buf](), rxPool: simnet.NewQueue[*Buf]()}
	for i := 0; i < PoolSize; i++ {
		e.txPool.Push(&Buf{data: make([]byte, BufSize), home: e.txPool})
		e.rxPool.Push(&Buf{data: make([]byte, BufSize), home: e.rxPool})
	}
	return e, nil
}

// Node reports the rank of the endpoint's host.
func (e *Endpoint) Node() int { return e.adapter.Node().ID() }

// ObtainBuffer takes a static send buffer from the kernel pool, blocking
// until one is free (the protocol's flow control).
func (e *Endpoint) ObtainBuffer() *Buf {
	b, ok := e.txPool.Pop()
	if !ok {
		panic("sbp: endpoint closed")
	}
	return b
}

// Release returns a buffer to its pool.
func (e *Endpoint) Release(b *Buf) { b.home.Push(b) }

// Send transmits the first n bytes of the static buffer to (dst, lane) and
// returns the buffer to the send pool — whether or not the send succeeds:
// the kernel owns the buffer again once Send has it. The payload is copied
// into a receive-side static buffer — SBP's second unavoidable copy
// happens on Recv's consumer, not here.
func (e *Endpoint) Send(a *vclock.Actor, dst, lane int, b *Buf, n int) error {
	defer e.Release(b)
	if n > len(b.data) {
		return fmt.Errorf("sbp: payload %d exceeds static buffer size %d", n, len(b.data))
	}
	pa, err := e.adapter.Peer(dst, e.adapter.Index())
	if err != nil {
		return fmt.Errorf("sbp: %w", err)
	}
	start, _ := e.adapter.TxEngine().Acquire(a.Now(), model.SBP.ByteTime(n))
	arrive := start + model.SBP.Time(n)
	e.adapter.Deliver(pa, lane, simnet.Packet{Data: b.data[:n], Inject: int64(start), Arrive: int64(arrive)})
	return nil
}

// Recv blocks for the next message from (src, lane), lands it in a static
// receive buffer, and returns that buffer and the payload length. The
// caller must Release the buffer after consuming it.
func (e *Endpoint) Recv(a *vclock.Actor, src, lane int) (*Buf, int, error) {
	pkt, ok := e.adapter.Recv(src, lane)
	if !ok {
		return nil, 0, fmt.Errorf("sbp: endpoint closed")
	}
	b, ok := e.rxPool.Pop()
	if !ok {
		return nil, 0, fmt.Errorf("sbp: endpoint closed")
	}
	copy(b.data, pkt.Data)
	a.Sync(vclock.Time(pkt.Arrive))
	return b, len(pkt.Data), nil
}
