package core

import (
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
	"madeleine2/internal/via"
)

// viaPMM is the VIA protocol module. Two transmission modules:
//
//   - via-short: blocks under 2 kB are copied into a ring of pre-registered
//     send buffers and land in pre-posted receive descriptors; a credit
//     protocol on the control VI keeps the receiver's descriptor queue from
//     underflowing (VIA's reliable-delivery mode breaks on
//     receiver-not-ready).
//   - via-large: big blocks are transferred RDMA-style into a
//     receiver-posted registered destination; a READY message on the
//     control VI releases the sender, since the receiver's posted buffer
//     is what makes RDMA legal. Each side keeps its last block's
//     registration (a one-entry pin-down cache per direction), so only a
//     block from memory it does not cover is registered on the fly, at
//     the pinning cost per page.
type viaPMM struct {
	nic    *via.NIC
	chanID int
	short  TM
	large  TM
}

const (
	viaShortCredits = 16 // pre-posted short descriptors per connection
	viaCtrlPosted   = 8  // pre-posted control descriptors
	viaStaging      = 2  // registered staging buffers per send ring
)

// Control message types on the ctrl VI.
const (
	viaCtrlCredit = byte(1)
	viaCtrlReady  = byte(2)
)

func newVIAPMM(node *simnet.Node, adapter, chanID int) (PMM, error) {
	nic, err := via.Attach(node, adapter)
	if err != nil {
		return nil, err
	}
	p := &viaPMM{nic: nic, chanID: chanID}
	p.short = NewStaticTM(&viaShort{p})
	p.large = NewDynamicTM(&viaLarge{p})
	return p, nil
}

func (p *viaPMM) Name() string { return "via" }

func (p *viaPMM) TMs() []TM { return []TM{p.short, p.large} }

func (p *viaPMM) Select(n int, sm SendMode, rm RecvMode) TM {
	if n < model.VIAShortMax {
		return p.short
	}
	return p.large
}

// VI id scheme: three VIs per connection, ids unique per NIC and identical
// on both ends of the pair.
func (p *viaPMM) viID(a, b, kind int) int {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return ((p.chanID*1024+lo)*1024+hi)*4 + kind
}

const (
	viShort = iota
	viLarge
	viCtrl
)

// viaConn is the per-connection VIA state, partitioned by direction so a
// concurrent send and receive on the same connection never share a field:
// the data ring and waitCtrl belong to the send path (send lease); the
// control ring and sendCtrl belong to the receive path (receive lease);
// the credit window over the peer's short descriptors is split the same
// way. The ctrl VI itself is shared but its two ends are
// direction-disjoint: the send path only drains completions (credit/READY
// arrivals) while the receive path only transmits, and via.VI queues are
// thread-safe.
type viaConn struct {
	short *via.VI
	large *via.VI
	ctrl  *via.VI

	dataBufs []*via.MemRegion // pre-registered short-data staging ring
	dataNext int
	ctrlBufs []*via.MemRegion // pre-registered control staging ring
	ctrlNext int

	descs *creditWindow // the peer's pre-posted short descriptors

	// The large blocks' kept registrations: sendReg belongs to the send
	// path, recvReg to the receive path.
	sendReg, recvReg *via.MemRegion
}

// viaRings is how many regions PreConnect pins per connection: the
// posted short and control descriptors and the two staging rings.
const viaRings = viaShortCredits + viaCtrlPosted + 2*viaStaging

func (p *viaPMM) PreConnect(cs *ConnState) error {
	st := &viaConn{descs: newCreditWindow(viaShortCredits)}
	l, r := cs.Local(), cs.Remote()
	// Channels bind the same adapter index on every member node, so the
	// peer's mirror endpoint lives on the peer's same-index adapter (not
	// necessarily adapter 0 — multi-rail channels open one VI triple per
	// rail adapter).
	idx := p.nic.Index()
	st.short = p.nic.CreateVI(p.viID(l, r, viShort), r, idx)
	st.large = p.nic.CreateVI(p.viID(l, r, viLarge), r, idx)
	st.ctrl = p.nic.CreateVI(p.viID(l, r, viCtrl), r, idx)
	// Registration of the long-lived rings happens at configuration time,
	// so its cost is not charged to any message actor.
	setup := vclock.NewActor(fmt.Sprintf("via-setup-%d-%d", l, r))
	for i := 0; i < viaShortCredits; i++ {
		if err := st.short.PostRecv(p.nic.Register(setup, make([]byte, model.VIAShortMax))); err != nil {
			return err
		}
	}
	for i := 0; i < viaCtrlPosted; i++ {
		if err := st.ctrl.PostRecv(p.nic.Register(setup, make([]byte, 16))); err != nil {
			return err
		}
	}
	for i := 0; i < viaStaging; i++ {
		st.dataBufs = append(st.dataBufs, p.nic.Register(setup, make([]byte, model.VIAShortMax)))
		st.ctrlBufs = append(st.ctrlBufs, p.nic.Register(setup, make([]byte, 16)))
	}
	cs.Priv = st
	return nil
}

func (p *viaPMM) Connect(cs *ConnState) error { return nil }

func (p *viaPMM) pinned(conns []*ConnState, add func(string, int, int)) {
	held := 0
	for _, cs := range conns {
		st := viaState(cs)
		held += viaRings
		if st.sendReg != nil {
			held++
		}
		if st.recvReg != nil {
			held++
		}
	}
	add(fmt.Sprintf("via node %d adapter %d", p.nic.Node(), p.nic.Index()), p.nic.Registered(), held)
}

func viaState(cs *ConnState) *viaConn { return cs.Priv.(*viaConn) }

// sendCtrl ships a small control message on the ctrl VI.
func (p *viaPMM) sendCtrl(a *vclock.Actor, cs *ConnState, kind byte, val int) error {
	st := viaState(cs)
	buf := st.ctrlBufs[st.ctrlNext%len(st.ctrlBufs)]
	st.ctrlNext++
	buf.Bytes()[0] = kind
	buf.Bytes()[1] = byte(val)
	return st.ctrl.Send(a, buf, 2, model.VIASend)
}

// waitCtrl consumes control messages until one of the wanted kind arrives
// and returns its value. Credit grants that overtake a READY go to the
// window on the way. The consumed descriptor is re-posted.
func (p *viaPMM) waitCtrl(a *vclock.Actor, cs *ConnState, want byte) (int, error) {
	st := viaState(cs)
	for {
		region, n, err := st.ctrl.WaitRecv(a)
		if err != nil {
			return 0, err
		}
		if n < 2 {
			return 0, fmt.Errorf("core: malformed via control message (%d bytes)", n)
		}
		kind, val := region.Bytes()[0], int(region.Bytes()[1])
		if err := st.ctrl.PostRecv(region); err != nil {
			return 0, err
		}
		switch kind {
		case want:
			return val, nil
		case viaCtrlCredit:
			st.descs.grant(val)
		default:
			return 0, fmt.Errorf("core: unexpected via control %d (want %d)", kind, want)
		}
	}
}

// --- short TM ---

type viaShort struct{ p *viaPMM }

func (t *viaShort) Name() string          { return "via-short" }
func (t *viaShort) Link(n int) model.Link { return model.VIASend }
func (t *viaShort) StaticSize() int       { return model.VIAShortMax }

func (t *viaShort) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	st := viaState(cs)
	buf := st.dataBufs[st.dataNext%len(st.dataBufs)]
	st.dataNext++
	return buf.Bytes(), nil
}

// regionOf maps a staging buffer back to its registered region.
func (t *viaShort) regionOf(cs *ConnState, buf []byte) (*via.MemRegion, error) {
	st := viaState(cs)
	for _, r := range st.dataBufs {
		if len(r.Bytes()) > 0 && len(buf) > 0 && &r.Bytes()[0] == &buf[0] {
			return r, nil
		}
	}
	return nil, fmt.Errorf("core: via send buffer is not a registered staging buffer")
}

func (t *viaShort) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	st := viaState(cs)
	if err := st.descs.acquire(a, cs, t); err != nil {
		return err
	}
	region, err := t.regionOf(cs, data)
	if err != nil {
		return err
	}
	return st.short.Send(a, region, len(data), model.VIASend)
}

func (t *viaShort) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	st := viaState(cs)
	region, n, err := st.short.WaitRecv(a)
	if err != nil {
		return nil, err
	}
	// Re-post immediately; the returned prefix stays valid until the next
	// viaShortCredits receives, and symmetric consumption is faster.
	if err := st.short.PostRecv(region); err != nil {
		return nil, err
	}
	return region.Bytes()[:n], nil
}

func (t *viaShort) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	return viaState(cs).descs.release(a, cs, t)
}

// A grant is a 2-byte credit message on the control VI.
func (t *viaShort) awaitGrant(a *vclock.Actor, cs *ConnState) (int, error) {
	return t.p.waitCtrl(a, cs, viaCtrlCredit)
}

func (t *viaShort) returnCredits(a *vclock.Actor, cs *ConnState, n int) error {
	return t.p.sendCtrl(a, cs, viaCtrlCredit, n)
}

// --- large TM ---

type viaLarge struct{ p *viaPMM }

func (t *viaLarge) Name() string { return "via-large" }

func (t *viaLarge) Link(n int) model.Link {
	l := model.VIARDMA
	l.Fixed += model.VIASend.Fixed // the READY control leg
	return l
}

func (t *viaLarge) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	st := viaState(cs)
	// Pin the user buffer, then wait for the receiver's READY — the posted
	// registered destination is what makes the transfer legal.
	region := t.p.pin(a, &st.sendReg, data)
	if _, err := t.p.waitCtrl(a, cs, viaCtrlReady); err != nil {
		return err
	}
	return st.large.Send(a, region, len(data), model.VIARDMA)
}

func (t *viaLarge) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	st := viaState(cs)
	// Pin the destination, post exactly len(dst) of it, and release the
	// sender.
	region := t.p.pin(a, &st.recvReg, dst)
	err := t.receive(a, cs, region, len(dst))
	if err != nil {
		// A descriptor the block left posted must not land in dst later.
		unpin(&st.recvReg)
	}
	return err
}

// receive posts the first n bytes of region, releases the sender and
// waits for the block to land there.
func (t *viaLarge) receive(a *vclock.Actor, cs *ConnState, region *via.MemRegion, n int) error {
	st := viaState(cs)
	if err := st.large.PostRecvN(region, n); err != nil {
		return err
	}
	if err := t.p.sendCtrl(a, cs, viaCtrlReady, 0); err != nil {
		return err
	}
	got, m, err := st.large.WaitRecv(a)
	if err != nil {
		return err
	}
	if got != region || m != n {
		return asymmetryError(fmt.Sprintf("via large block on %s", cs.ch.name), m, n)
	}
	return nil
}

// pin returns a registration covering buf for one large block. The
// direction's kept registration is a hit when it starts at buf's first
// byte and spans buf, and costs nothing; a miss registers buf[:cap(buf)],
// charged per page, and deregisters the registration it replaces.
func (p *viaPMM) pin(a *vclock.Actor, kept **via.MemRegion, buf []byte) *via.MemRegion {
	if r := *kept; r != nil && covers(r.Bytes(), buf) {
		return r
	}
	unpin(kept)
	*kept = p.nic.Register(a, buf[:cap(buf)])
	return *kept
}

// unpin deregisters a kept registration and forgets it.
func unpin(kept **via.MemRegion) {
	if *kept != nil {
		_ = (*kept).Deregister() // fails only on a second call, which forgetting it rules out
		*kept = nil
	}
}

// covers reports whether a registered region starts at buf's first byte
// and is at least as long: the hit rule of a kept registration. The
// region holds its memory alive, so no other buffer can start there.
func covers(region, buf []byte) bool {
	return len(buf) > 0 && len(region) >= len(buf) && &region[0] == &buf[0]
}
