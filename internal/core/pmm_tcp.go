package core

import (
	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// tcpPMM is the TCP protocol module: a single dynamic-buffer TM with an
// aggregating BMM — grouped buffers leave in one kernel send (the writev
// idiom), which amortizes the kernel's large per-message cost.
type tcpPMM struct {
	ep   *tcpnet.Endpoint
	port int
	tm   TM
}

func newTCPPMM(node *simnet.Node, adapter, chanID int) (PMM, error) {
	ep, err := tcpnet.Attach(node, adapter)
	if err != nil {
		return nil, err
	}
	p := &tcpPMM{ep: ep, port: chanID}
	p.tm = NewDynamicTM(&tcpMover{p})
	return p, nil
}

func (p *tcpPMM) Name() string                              { return "tcp" }
func (p *tcpPMM) Select(n int, sm SendMode, rm RecvMode) TM { return p.tm }
func (p *tcpPMM) TMs() []TM                                 { return []TM{p.tm} }
func (p *tcpPMM) PreConnect(cs *ConnState) error            { cs.Priv = &tcpConn{}; return nil }
func (p *tcpPMM) Connect(cs *ConnState) error               { return nil }

// tcpConn keeps the receive-side residue of a partially consumed kernel
// message (a group read in several sub-group calls). Receive-direction
// only: the receive lease guards it, and the send path never touches it.
type tcpConn struct {
	residue []byte
}

// tcpMover declares its own group bodies, which is what selects the
// aggregating BMM for it.
type tcpMover struct{ p *tcpPMM }

func (t *tcpMover) Name() string          { return "tcp" }
func (t *tcpMover) Link(n int) model.Link { return model.TCPFE }

func (t *tcpMover) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	return t.p.ep.Send(a, cs.Remote(), t.p.port, data)
}

func (t *tcpMover) SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error {
	return t.p.ep.Sendv(a, cs.Remote(), t.p.port, group...)
}

// ReceiveBuffer consumes len(dst) bytes from the connection's incoming
// stream.
func (t *tcpMover) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	st := cs.Priv.(*tcpConn)
	for len(dst) > 0 {
		if len(st.residue) == 0 {
			msg, err := t.p.ep.Recv(a, cs.Remote(), t.p.port)
			if err != nil {
				return err
			}
			st.residue = msg
		}
		n := copy(dst, st.residue)
		st.residue = st.residue[n:]
		dst = dst[n:]
	}
	return nil
}

// The gather is the sender's alone: the receiver reads a byte stream.
func (t *tcpMover) ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error {
	return eachBuffer{t}.ReceiveSubBufferGroup(a, cs, dsts)
}
