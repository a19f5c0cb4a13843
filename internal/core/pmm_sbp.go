package core

import (
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/sbp"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// sbpPMM is the SBP protocol module: the paper's canonical static-buffer
// interface (§6.1) — user data must be written into kernel-provided static
// buffers on the sending side, and arrives in kernel static buffers on the
// receiving side. A single TM with the static-copy BMM.
type sbpPMM struct {
	ep   *sbp.Endpoint
	lane int
	tm   TM
}

func newSBPPMM(node *simnet.Node, adapter, chanID int) (PMM, error) {
	ep, err := sbp.Attach(node, adapter)
	if err != nil {
		return nil, err
	}
	p := &sbpPMM{ep: ep, lane: chanID}
	p.tm = NewStaticTM(&sbpMover{p})
	return p, nil
}

func (p *sbpPMM) Name() string                              { return "sbp" }
func (p *sbpPMM) Select(n int, sm SendMode, rm RecvMode) TM { return p.tm }
func (p *sbpPMM) TMs() []TM                                 { return []TM{p.tm} }
func (p *sbpPMM) PreConnect(cs *ConnState) error {
	cs.Priv = &sbpConn{
		sendBufs: map[*byte]*sbp.Buf{},
		recvBufs: map[*byte]*sbp.Buf{},
	}
	return nil
}
func (p *sbpPMM) Connect(cs *ConnState) error { return nil }

// sbpConn maps outstanding static buffer payloads back to their kernel
// buffers, one map per direction: sendBufs tracks buffers obtained for
// packing (send lease: ObtainStaticBuffer/SendBuffer), recvBufs tracks
// buffers handed out by the kernel on receive (receive lease:
// ReceiveStaticBuffer/ReleaseStaticBuffer). Keeping them separate lets a
// concurrent send and receive on the same connection proceed without a
// shared map.
type sbpConn struct {
	sendBufs map[*byte]*sbp.Buf
	recvBufs map[*byte]*sbp.Buf
}

type sbpMover struct{ p *sbpPMM }

func (t *sbpMover) Name() string          { return "sbp" }
func (t *sbpMover) Link(n int) model.Link { return model.SBP }
func (t *sbpMover) StaticSize() int       { return sbp.BufSize }

func sbpState(cs *ConnState) *sbpConn { return cs.Priv.(*sbpConn) }

func sbpTrack(bufs map[*byte]*sbp.Buf, b *sbp.Buf) []byte {
	data := b.Bytes()
	bufs[&data[0]] = b
	return data
}

func sbpLookup(bufs map[*byte]*sbp.Buf, data []byte) (*sbp.Buf, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty sbp buffer")
	}
	b := bufs[&data[0]]
	if b == nil {
		return nil, fmt.Errorf("core: sbp payload does not belong to a kernel static buffer")
	}
	delete(bufs, &data[0])
	return b, nil
}

func (t *sbpMover) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	return sbpTrack(sbpState(cs).sendBufs, t.p.ep.ObtainBuffer()), nil
}

func (t *sbpMover) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	b, err := sbpLookup(sbpState(cs).sendBufs, data)
	if err != nil {
		return err
	}
	return t.p.ep.Send(a, cs.Remote(), t.p.lane, b, len(data))
}

// unsent hands an unsent kernel buffer back to the pool, as Send does.
func (t *sbpMover) unsent(cs *ConnState, buf []byte) {
	if b, err := sbpLookup(sbpState(cs).sendBufs, buf); err == nil {
		t.p.ep.Release(b)
	}
}

func (t *sbpMover) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	b, n, err := t.p.ep.Recv(a, cs.Remote(), t.p.lane)
	if err != nil {
		return nil, err
	}
	return sbpTrack(sbpState(cs).recvBufs, b)[:n], nil
}

func (t *sbpMover) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	b, err := sbpLookup(sbpState(cs).recvBufs, buf)
	if err != nil {
		return err
	}
	t.p.ep.Release(b)
	return nil
}
