package core

import (
	"fmt"

	"madeleine2/internal/bip"
	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// bipPMM is the BIP/Myrinet protocol module (§5.2.2): a short-message TM
// running credit-based flow control over BIP's preallocated buffers, and a
// long-message TM using BIP's receiver-acknowledgment rendezvous.
type bipPMM struct {
	iface   *bip.Interface
	dataTag int
	ctrlTag int
	short   TM
	long    TM
}

// bipShortTMCost is the short TM's per-buffer library cost (credit
// bookkeeping, header handling), charged on each side; together with the
// pack/unpack costs it accounts for the raw 5 µs → Madeleine 7 µs latency
// delta of §5.2.2.
var bipShortTMCost = vclock.Micros(0.5)

func newBIPPMM(node *simnet.Node, adapter, chanID int) (PMM, error) {
	iface, err := bip.Attach(node, adapter)
	if err != nil {
		return nil, err
	}
	p := &bipPMM{iface: iface, dataTag: chanID * 2, ctrlTag: chanID*2 + 1}
	p.short = NewStaticTM(&bipShort{p})
	p.long = NewDynamicTM(&bipLong{p})
	return p, nil
}

func (p *bipPMM) Name() string { return "bip" }

func (p *bipPMM) TMs() []TM { return []TM{p.short, p.long} }

func (p *bipPMM) Select(n int, sm SendMode, rm RecvMode) TM {
	if n < bip.ShortMax {
		return p.short
	}
	return p.long
}

// bipConn is the per-connection state: the short TM's credit window over
// the peer's preallocated short buffers, and the data and control tags
// toward the peer, resolved at Connect.
type bipConn struct {
	window     *creditWindow
	data, ctrl bip.Pair
}

func (p *bipPMM) PreConnect(cs *ConnState) error {
	cs.Priv = &bipConn{window: newCreditWindow(bip.ShortBufs)}
	return nil
}

func (p *bipPMM) Connect(cs *ConnState) error {
	st := bipState(cs)
	var err error
	if st.data, err = p.iface.Pair(cs.Remote(), p.dataTag); err != nil {
		return err
	}
	st.ctrl, err = p.iface.Pair(cs.Remote(), p.ctrlTag)
	return err
}

func bipState(cs *ConnState) *bipConn { return cs.Priv.(*bipConn) }

// --- short-message TM ---

type bipShort struct{ p *bipPMM }

func (t *bipShort) Name() string { return "bip-short" }

func (t *bipShort) Link(n int) model.Link {
	l := model.BIPShort
	l.Fixed += bipShortTMCost
	return l
}

func (t *bipShort) StaticSize() int { return bip.ShortMax - 1 }

func (t *bipShort) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	// The credit window keeps the receiver's preallocated ring from ever
	// overrunning (§5.2.2).
	st := bipState(cs)
	if err := st.window.acquire(a, cs, t); err != nil {
		return err
	}
	a.Advance(bipShortTMCost)
	return st.data.SendShort(a, data)
}

func (t *bipShort) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	buf, err := bipState(cs).data.RecvShort(a)
	if err != nil {
		return nil, err
	}
	a.Advance(bipShortTMCost)
	return buf, nil
}

func (t *bipShort) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	return bipState(cs).window.release(a, cs, t)
}

// A grant is a 1-byte short message on the control tag.
func (t *bipShort) awaitGrant(a *vclock.Actor, cs *ConnState) (int, error) {
	msg, err := bipState(cs).ctrl.RecvShort(a)
	if err != nil {
		return 0, err
	}
	return int(msg[0]), nil
}

func (t *bipShort) returnCredits(a *vclock.Actor, cs *ConnState, n int) error {
	return bipState(cs).ctrl.SendShort(a, []byte{byte(n)})
}

// --- long-message TM ---

type bipLong struct{ p *bipPMM }

func (t *bipLong) Name() string { return "bip-long" }

func (t *bipLong) Link(n int) model.Link {
	l := model.BIPLong
	l.Fixed += 2 * model.BIPControl.Time(0) // the rendezvous round-trip
	return l
}

func (t *bipLong) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	return bipState(cs).data.SendLong(a, data)
}

func (t *bipLong) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	n, err := bipState(cs).data.RecvLong(a, dst)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return asymmetryError(fmt.Sprintf("bip long block on %s", cs.ch.name), n, len(dst))
	}
	return nil
}
