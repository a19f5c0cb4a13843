// Package bip re-implements the contract of BIP (Basic Interface for
// Parallelism), the user-level Myrinet interface of Prylli & Tourancheau
// used by the paper's BIP PMM, on top of the simulated fabric.
//
// BIP distinguishes two transfer regimes (§5.2.2 of the paper):
//
//   - Short messages (< 1 kB) are deposited into a bounded set of
//     preallocated receive buffers on the destination NIC without any
//     participation of the receiver. The set is bounded: a sender that
//     overruns it corrupts the ring on real hardware; here the overrun is
//     detected and reported as ErrShortOverrun. Flow control is the
//     caller's job — Madeleine's short-message TM runs credits over this
//     interface exactly as the paper describes.
//
//   - Long messages are delivered directly into their final location with
//     zero copies, which requires a strict rendezvous: the sender blocks
//     until the receiver has posted a matching receive, then the NIC DMAs
//     the payload into the posted buffer.
//
// Messages are matched by (source node, tag); delivery is in-order per
// (source, tag) pair, matching BIP's per-tag ordered queues.
package bip

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Network is the fabric name BIP adapters attach to.
const Network = "myrinet"

// ShortMax is the exclusive size bound of the short-message path.
const ShortMax = model.BIPShortMax

// ShortBufs is the number of preallocated short-message buffers per
// (source, tag) pair.
const ShortBufs = model.BIPShortCredits

// ErrShortOverrun reports that a short send exceeded the receiver's
// preallocated buffer ring — the detectable analogue of the corruption an
// unflow-controlled sender causes on real hardware.
var ErrShortOverrun = errors.New("bip: short-message receive buffers overrun (missing flow control)")

// ErrTooLong reports a short-path send above ShortMax.
var ErrTooLong = errors.New("bip: message too long for the short path")

type key struct {
	src int
	tag int
}

// Interface is one node's access to BIP on a Myrinet adapter.
type Interface struct {
	adapter *simnet.Adapter

	mu  sync.Mutex
	ins map[key]*inbound // by (source, tag), made on first use
}

// inbound is what an interface keeps per (source, tag): the short-message
// lane and the count of its preallocated buffers in use, and the queue of
// long receives posted for the pair with its idle records.
type inbound struct {
	lane   *simnet.RxLane
	short  atomic.Int32 // occupied short buffers
	posted *simnet.Queue[*postedRecv]

	mu   sync.Mutex
	recs []*postedRecv // idle posted-receive records
}

// postedRecv is one posted long receive. The receiver fills buf and
// postedAt and posts it; the matching sender answers on done, after which
// the record returns to its pair's idle list.
type postedRecv struct {
	buf      []byte
	postedAt vclock.Time
	done     simnet.Queue[delivery]
}

// delivery is a long send's outcome, as the receiver's NIC reports it.
type delivery struct {
	n      int
	arrive vclock.Time
	err    error
}

// Attach opens BIP on the idx-th Myrinet adapter of node n. Attaching twice
// to the same adapter returns the same Interface, as with the real driver's
// per-process initialization.
func Attach(n *simnet.Node, idx int) (*Interface, error) {
	a, err := n.Adapter(Network, idx)
	if err != nil {
		return nil, fmt.Errorf("bip: %w", err)
	}
	b := &Interface{adapter: a, ins: make(map[key]*inbound)}
	return a.AttachDriver(b).(*Interface), nil
}

// Adapter returns the underlying simulated NIC.
func (b *Interface) Adapter() *simnet.Adapter { return b.adapter }

// Node reports the rank of the interface's host.
func (b *Interface) Node() int { return b.adapter.Node().ID() }

// peer resolves the destination node's Interface on the same network and
// adapter index (it must have been Attached).
func (b *Interface) peer(dst int) (*Interface, error) {
	pa, err := b.adapter.Peer(dst, b.adapter.Index())
	if err != nil {
		return nil, fmt.Errorf("bip: %w", err)
	}
	p, ok := pa.Driver().(*Interface)
	if !ok {
		return nil, fmt.Errorf("bip: node %d has not attached to %s[%d]", dst, Network, b.adapter.Index())
	}
	return p, nil
}

// inbound returns (creating) the interface's record of (src, tag).
func (b *Interface) inbound(src, tag int) *inbound {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := key{src, tag}
	in := b.ins[k]
	if in == nil {
		in = &inbound{lane: b.adapter.RxLane(src, shortLane(tag)), posted: simnet.NewQueue[*postedRecv]()}
		b.ins[k] = in
	}
	return in
}

// shortLane maps a BIP tag to its fabric lane: BIP maintains one ordered
// short-message queue per tag.
func shortLane(tag int) int { return tag }

// Pair is both directions of one (peer, tag) pair, resolved once: a
// caller that keeps it, as a Madeleine connection does, finds neither the
// peer nor the pair's queues per message. The by-rank calls (TSendShort
// and the rest) resolve what they need on every call.
type Pair struct {
	b   *Interface
	p   *Interface // the peer's interface
	out *inbound   // the peer's record of (this node, tag)
	in  *inbound   // this interface's record of (peer, tag)
	tag int
}

// Pair resolves (peer, tag); the peer must have attached.
func (b *Interface) Pair(peer, tag int) (Pair, error) {
	p, err := b.peer(peer)
	if err != nil {
		return Pair{}, err
	}
	return Pair{b: b, p: p, out: p.inbound(b.Node(), tag), in: b.inbound(peer, tag), tag: tag}, nil
}

// SendShort is TSendShort on the pair.
func (pr Pair) SendShort(a *vclock.Actor, data []byte) error {
	return pr.b.sendShort(a, pr.p, pr.out, pr.tag, data)
}

// RecvShort is TRecvShort on the pair.
func (pr Pair) RecvShort(a *vclock.Actor) ([]byte, error) { return pr.in.recvShort(a) }

// SendLong is TSendLong on the pair.
func (pr Pair) SendLong(a *vclock.Actor, data []byte) error { return pr.b.sendLong(a, pr.out, data) }

// RecvLong is TRecvLong on the pair.
func (pr Pair) RecvLong(a *vclock.Actor, buf []byte) (int, error) { return pr.in.recvLong(a, buf) }

// TSendShort sends a short message to (dst, tag). It returns
// ErrShortOverrun if the receiver's preallocated ring for this (src, tag)
// is full — callers are expected to run their own flow control.
func (b *Interface) TSendShort(a *vclock.Actor, dst, tag int, data []byte) error {
	p, err := b.peer(dst)
	if err != nil {
		return err
	}
	return b.sendShort(a, p, p.inbound(b.Node(), tag), tag, data)
}

// sendShort deposits data in one of p's buffers for (this node, tag),
// counted by out.
func (b *Interface) sendShort(a *vclock.Actor, p *Interface, out *inbound, tag int, data []byte) error {
	if len(data) >= ShortMax {
		return ErrTooLong
	}
	if out.short.Add(1) > ShortBufs {
		out.short.Add(-1)
		return ErrShortOverrun
	}

	// The host hands the message to the LANai; the NIC serializes injection.
	// Host-side per-call costs are folded into the model's fixed term.
	start, _ := b.adapter.TxEngine().Acquire(a.Now(), model.BIPShort.ByteTime(len(data)))
	arrive := start + model.BIPShort.Time(len(data))
	// The NIC copies into one of the receiver's preallocated buffers.
	b.adapter.Deliver(p.adapter, shortLane(tag), simnet.Packet{
		Data:   data,
		Inject: int64(start),
		Arrive: int64(arrive),
		Tag:    uint64(tag),
	})
	return nil
}

// TRecvShort receives the next short message from (src, tag) into one of
// the preallocated buffers and returns that buffer (valid until the next
// receive on the same pair, as with BIP's internal buffers; callers copy
// out what they need to keep).
func (b *Interface) TRecvShort(a *vclock.Actor, src, tag int) ([]byte, error) {
	return b.inbound(src, tag).recvShort(a)
}

func (in *inbound) recvShort(a *vclock.Actor) ([]byte, error) {
	pkt, ok := in.lane.Recv()
	if !ok {
		return nil, fmt.Errorf("bip: receive lane closed")
	}
	in.short.Add(-1)
	a.Sync(vclock.Time(pkt.Arrive))
	return pkt.Data, nil
}

// TRecvLong posts a receive for a long message from (src, tag) into buf and
// blocks until the payload has been delivered into buf. It returns the
// payload length. Posting the receive is what releases the matching sender
// (BIP's receiver-acknowledgment synchronization).
func (b *Interface) TRecvLong(a *vclock.Actor, src, tag int, buf []byte) (int, error) {
	return b.inbound(src, tag).recvLong(a, buf)
}

func (in *inbound) recvLong(a *vclock.Actor, buf []byte) (int, error) {
	in.mu.Lock()
	var pr *postedRecv
	if i := len(in.recs) - 1; i >= 0 {
		pr, in.recs = in.recs[i], in.recs[:i]
	} else {
		pr = new(postedRecv)
	}
	in.mu.Unlock()
	pr.buf, pr.postedAt = buf, a.Now()
	in.posted.Push(pr)
	d, _ := pr.done.Pop() // the record's queue is never closed
	pr.buf = nil
	in.mu.Lock()
	in.recs = append(in.recs, pr)
	in.mu.Unlock()
	a.Sync(d.arrive)
	return d.n, d.err
}

// TSendLong sends data to (dst, tag) on the long-message path: it blocks
// until the receiver has posted a matching receive, then delivers the
// payload directly into the posted buffer.
func (b *Interface) TSendLong(a *vclock.Actor, dst, tag int, data []byte) error {
	p, err := b.peer(dst)
	if err != nil {
		return err
	}
	return b.sendLong(a, p.inbound(b.Node(), tag), data)
}

// sendLong meets the next receive posted in out.
func (b *Interface) sendLong(a *vclock.Actor, out *inbound, data []byte) error {
	// Rendezvous request reaches the receiver...
	reqArrive := a.Now() + model.BIPControl.Time(0)
	// ...and we block until a matching receive is posted.
	pr, _ := out.posted.Pop() // never closed

	// The "ready" acknowledgment leaves once both the request has arrived
	// and the receive is posted.
	ready := vclock.Max(reqArrive, pr.postedAt) + model.BIPControl.Time(0)
	a.Sync(ready)
	a.Advance(model.BIPLong.Fixed) // DMA setup + completion interrupt
	_, end := b.adapter.TxEngine().Acquire(a.Now(), model.BIPLong.ByteTime(len(data)))
	// bip_send blocks until the message has fully left: the caller's
	// buffer is reusable when TSendLong returns.
	a.Sync(end)
	if len(pr.buf) < len(data) {
		err := fmt.Errorf("bip: posted receive buffer too small (%d < %d)", len(pr.buf), len(data))
		pr.done.Push(delivery{err: err})
		return err
	}
	copy(pr.buf, data) // zero-copy delivery into the final location
	pr.done.Push(delivery{n: len(data), arrive: end})
	return nil
}
