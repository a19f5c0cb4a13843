package core

import (
	"madeleine2/internal/model"
	"madeleine2/internal/vclock"
)

// TM is a Transmission Module: the encapsulation of one transfer method of
// one network interface (Table 2 of the paper). A protocol module usually
// contributes several TMs — e.g. BIP's short-message and long-message
// paths, or SISCI's short-PIO, regular-PIO/dual-buffering and DMA modes —
// and the Switch step picks among them per packed block.
type TM interface {
	// Name identifies the TM (e.g. "bip-long", "sisci-short").
	Name() string

	// Link summarizes the TM's one-way cost for an n-byte buffer. The
	// inter-device forwarding layer feeds it to the gateway's PCI-bus
	// arbiter; reports print it.
	Link(n int) model.Link

	// NewBMM returns a fresh instance of the buffer-management policy this
	// TM works best with ("The selected TM determines the optimal Buffer
	// Management Module", §4.1), bound to one connection direction.
	NewBMM(cs *ConnState) BMM

	// SendBuffer transmits one buffer on the connection.
	SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error

	// SendBufferGroup transmits a group of buffers, exploiting
	// scatter/gather capabilities where the protocol has them.
	SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error

	// ReceiveBuffer fills dst with the next incoming buffer.
	ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error

	// ReceiveSubBufferGroup fills a (sub-)group of destination buffers
	// from the incoming stream.
	ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error

	// ObtainStaticBuffer returns an empty protocol-level buffer for the
	// static-copy BMM to fill, or ErrNoStatic for dynamic-buffer TMs.
	ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error)

	// ReceiveStaticBuffer returns the next incoming protocol-level buffer
	// (its exact valid prefix), or ErrNoStatic for dynamic-buffer TMs.
	ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error)

	// ReleaseStaticBuffer returns a buffer obtained from
	// ObtainStaticBuffer/ReceiveStaticBuffer to the protocol (freeing the
	// receive ring slot, returning flow-control credit, ...).
	ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error

	// StaticSize reports the protocol buffer payload capacity, or 0 for
	// dynamic-buffer TMs.
	StaticSize() int
}

// PMM is a Protocol Management Module: one per supported network interface
// (§3.3). It groups the interface's TMs, implements the per-connection
// bootstrap, and performs the Switch step's TM selection.
type PMM interface {
	// Name identifies the protocol (e.g. "bip", "sisci").
	Name() string

	// Select returns the best TM for an n-byte block packed with the given
	// mode combination — the library's "most-efficient transfer-method
	// selection mechanism" (§7).
	Select(n int, sm SendMode, rm RecvMode) TM

	// TMs lists every transmission module Select can return (including
	// configuration-disabled ones). Channels pre-register the names at
	// creation so per-TM statistics update lock-free on the hot path,
	// and observers label latency histograms with them.
	TMs() []TM

	// PreConnect is the first phase of the connection bootstrap: it
	// creates what the peer will attach to (segments, VI mirrors,
	// pre-posted descriptors, registered rings) and installs cs.Priv.
	// NewChannel runs it on every connection before any Connect.
	PreConnect(cs *ConnState) error

	// Connect is the second phase: attach to what the peer's PreConnect
	// created.
	Connect(cs *ConnState) error
}

// BMM is a Buffer Management Module instance bound to one connection
// direction (§3.4): a generic, protocol-independent buffer handling policy.
// Instances are created by the TM that selected them and keep the delayed
// state between Pack/Unpack calls and the Commit/Checkout flushes.
type BMM interface {
	// Name identifies the policy (e.g. "dyn-eager", "static-copy").
	Name() string

	// Pack hands one user block to the policy. Depending on the policy and
	// the modes it is sent immediately, queued for aggregation, or copied
	// into a protocol static buffer.
	Pack(a *vclock.Actor, data []byte, sm SendMode, rm RecvMode) error

	// Commit flushes every delayed block to the TM. It runs when the
	// Switch step changes TM and at EndPacking (§4.1).
	Commit(a *vclock.Actor) error

	// Unpack hands one destination block to the policy. ReceiveExpress
	// forces completion before return; ReceiveCheaper may defer extraction
	// until Checkout.
	Unpack(a *vclock.Actor, dst []byte, rm RecvMode) error

	// Checkout completes every deferred extraction. It runs when the
	// Switch step changes TM and at EndUnpacking (§4.2).
	Checkout(a *vclock.Actor) error

	// discard drops what an aborted message left delayed or deferred, so
	// none of it reaches the next message.
	discard()
}

// A transmission module uses only half of Table 2 ("some functions may
// not be relevant for a specific TM"), and which half depends on whether
// it moves dynamic or static buffers. A protocol module declares that half
// — the mover — and DynamicTM or StaticTM supplies the rest, so the "not
// relevant" answers and the rule "a group is each buffer in turn" are
// written once, here. The adapter, not the mover, is the TM identity the
// Switch step, the BMM maps and the statistics compare: build it once,
// with the PMM.

// dynamicMover is what a dynamic-buffer TM declares: its name, its cost
// model, and how one user buffer crosses the wire in each direction.
type dynamicMover interface {
	Name() string
	Link(n int) model.Link
	SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error
	ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error
}

// groupMover is the scatter/gather half of a dynamic TM.
type groupMover interface {
	SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error
	ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error
}

// DynamicTM is a dynamic-buffer transmission module: user buffers travel
// as they are, and the static-buffer calls answer ErrNoStatic.
type DynamicTM struct {
	dynamicMover
	groupMover
	gathers bool // the mover brought its own groupMover
}

// NewDynamicTM builds the TM around a mover. A mover that also declares
// the groupMover methods can do better for a group than sending its
// buffers one by one (TCP's single kernel send, the rail fan-out): it
// keeps them and gets the aggregating BMM. Any other gets eachBuffer and
// the eager BMM, for which grouping would only add delay.
func NewDynamicTM(m dynamicMover) *DynamicTM {
	g, gathers := m.(groupMover)
	if !gathers {
		g = eachBuffer{m}
	}
	return &DynamicTM{m, g, gathers}
}

func (t *DynamicTM) NewBMM(cs *ConnState) BMM {
	if t.gathers {
		return newAggrDyn(t, cs)
	}
	return newEagerDyn(t, cs)
}

func (t *DynamicTM) StaticSize() int { return 0 }

func (t *DynamicTM) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	return nil, ErrNoStatic
}

func (t *DynamicTM) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	return nil, ErrNoStatic
}

func (t *DynamicTM) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	return ErrNoStatic
}

// eachBuffer is the group rule of a TM without scatter/gather: the
// buffers of a group cross the wire one by one, in order.
type eachBuffer struct{ dynamicMover }

func (e eachBuffer) SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error {
	for _, g := range group {
		if err := e.SendBuffer(a, cs, g); err != nil {
			return err
		}
	}
	return nil
}

func (e eachBuffer) ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error {
	for _, d := range dsts {
		if err := e.ReceiveBuffer(a, cs, d); err != nil {
			return err
		}
	}
	return nil
}

// staticMover is what a static-buffer TM declares: its name, its cost
// model, the payload capacity of one protocol buffer, how a filled buffer
// crosses the wire, and the incoming buffer's life cycle — receive and
// release.
type staticMover interface {
	Name() string
	Link(n int) model.Link
	StaticSize() int
	SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error
	ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error)
	ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error
}

// bufferOwner is a static mover whose protocol has send buffers of its
// own (VIA's registered staging ring, SBP's kernel pool).
type bufferOwner interface {
	ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error)
}

// poolOwner is a bufferOwner whose pool counts what it lends (SBP's): it
// takes back a buffer that will not be sent. VIA's ring lends in turn.
type poolOwner interface {
	unsent(cs *ConnState, buf []byte)
}

// StaticTM is a static-buffer transmission module: data travels in
// buffers the protocol owns, filled and drained by the static-copy BMM,
// so the dynamic receive calls answer ErrNoStatic. For a mover that is
// not a bufferOwner — one whose wire operation copies the buffer off the
// host — the TM owns the outgoing buffers itself: a per-connection free
// list that ObtainStaticBuffer takes from and SendBuffer gives back to,
// whether or not the send succeeded.
type StaticTM struct {
	staticMover
	owner bufferOwner // nil: the TM's free list serves ObtainStaticBuffer
}

// NewStaticTM builds the TM around a mover.
func NewStaticTM(m staticMover) *StaticTM {
	owner, _ := m.(bufferOwner)
	return &StaticTM{m, owner}
}

func (t *StaticTM) NewBMM(cs *ConnState) BMM { return newStatCopy(t, cs) }

func (t *StaticTM) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	if t.owner != nil {
		return t.owner.ObtainStaticBuffer(a, cs)
	}
	return cs.staticBufs(t).get(t.StaticSize()), nil
}

func (t *StaticTM) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	err := t.staticMover.SendBuffer(a, cs, data)
	if t.owner == nil {
		cs.staticBufs(t).put(data, t.StaticSize())
	}
	return err
}

// unsent takes back a buffer that will not be sent (its message aborted or
// was refused) where a failed send returns it.
func (t *StaticTM) unsent(cs *ConnState, buf []byte) {
	switch o := t.owner.(type) {
	case nil:
		cs.staticBufs(t).put(buf, t.StaticSize())
	case poolOwner:
		o.unsent(cs, buf)
	}
}

// staticFreeMax bounds a free list. The static-copy BMM holds one outgoing
// buffer at a time; two covers a caller that fills the next before
// sending the last, as the smallest staging ring does.
const staticFreeMax = 2

// freeList is one connection's idle outgoing buffers of one StaticTM,
// made on demand and guarded by the send lease.
type freeList struct {
	bufs [][]byte
	out  int // obtained and not yet sent: zero between messages
}

func (f *freeList) get(size int) []byte {
	f.out++
	if n := len(f.bufs) - 1; n >= 0 {
		b := f.bufs[n]
		f.bufs = f.bufs[:n]
		return b
	}
	return make([]byte, size)
}

// put takes back a buffer get handed out; anything else is the caller's.
func (f *freeList) put(b []byte, size int) {
	if cap(b) != size {
		return
	}
	f.out--
	if len(f.bufs) < staticFreeMax {
		f.bufs = append(f.bufs, b[:size])
	}
}

func (t *StaticTM) SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error {
	for _, g := range group {
		if err := t.SendBuffer(a, cs, g); err != nil {
			return err
		}
	}
	return nil
}

func (t *StaticTM) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	return ErrNoStatic
}

func (t *StaticTM) ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error {
	return ErrNoStatic
}
