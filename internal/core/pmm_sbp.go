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
// receiving side: the sender's, lent across the wire until the receiver
// releases it. A single TM with the static-copy BMM.
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
	cs.Priv = new(sbpConn)
	return nil
}
func (p *sbpPMM) Connect(cs *ConnState) error { return nil }

// leftovers reports the endpoint's kernel buffers that are not home: a
// session at rest has sent every buffer it obtained, and every message
// sent was received and its buffers released.
func (p *sbpPMM) leftovers() []string {
	away, made := p.ep.Outstanding()
	if away == 0 {
		return nil
	}
	return []string{fmt.Sprintf("sbp node %d adapter %d: %d of %d kernel buffers not home (obtained and not sent, or sent and not released)",
		p.ep.Node(), p.ep.Adapter().Index(), away, made)}
}

// sbpConn maps outstanding static buffer payloads back to their kernel
// buffers, one list per direction: sendBufs tracks buffers obtained for
// packing (send lease: ObtainStaticBuffer/SendBuffer), recvBufs tracks
// buffers handed out by the kernel on receive (receive lease:
// ReceiveStaticBuffer/ReleaseStaticBuffer). Keeping them separate lets a
// concurrent send and receive on the same connection proceed without a
// shared list.
type sbpConn struct {
	sendBufs sbpBufs
	recvBufs sbpBufs
}

// sbpBufs is one direction's outstanding kernel buffers, each with the
// address of the payload it handed out. The static-copy BMM holds one or
// two at a time, so a scan finds one sooner than a hash would.
type sbpBufs []sbpOut

type sbpOut struct {
	at  *byte
	buf *sbp.Buf
}

type sbpMover struct{ p *sbpPMM }

func (t *sbpMover) Name() string          { return "sbp" }
func (t *sbpMover) Link(n int) model.Link { return model.SBP }
func (t *sbpMover) StaticSize() int       { return sbp.BufSize }

func sbpState(cs *ConnState) *sbpConn { return cs.Priv.(*sbpConn) }

// track lists b as handed out and returns its payload.
func (bs *sbpBufs) track(b *sbp.Buf) []byte {
	data := b.Bytes()
	*bs = append(*bs, sbpOut{&data[0], b})
	return data
}

// take removes and returns the buffer whose payload data is.
func (bs *sbpBufs) take(data []byte) (*sbp.Buf, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty sbp buffer")
	}
	l := *bs
	for i, o := range l {
		if o.at == &data[0] {
			last := len(l) - 1
			l[i], l[last] = l[last], sbpOut{}
			*bs = l[:last]
			return o.buf, nil
		}
	}
	return nil, fmt.Errorf("core: sbp payload does not belong to a kernel static buffer")
}

func (t *sbpMover) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	return sbpState(cs).sendBufs.track(t.p.ep.ObtainBuffer()), nil
}

func (t *sbpMover) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	b, err := sbpState(cs).sendBufs.take(data)
	if err != nil {
		return err
	}
	return t.p.ep.Send(a, cs.Remote(), t.p.lane, b, len(data))
}

// unsent hands an unsent kernel buffer back to the pool, as a failed Send
// does.
func (t *sbpMover) unsent(cs *ConnState, buf []byte) {
	if b, err := sbpState(cs).sendBufs.take(buf); err == nil {
		t.p.ep.Release(b)
	}
}

func (t *sbpMover) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	b, n, err := t.p.ep.Recv(a, cs.Remote(), t.p.lane)
	if err != nil {
		return nil, err
	}
	return sbpState(cs).recvBufs.track(b)[:n], nil
}

func (t *sbpMover) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	b, err := sbpState(cs).recvBufs.take(buf)
	if err != nil {
		return err
	}
	t.p.ep.Release(b)
	return nil
}
