package core

import "madeleine2/internal/vclock"

// creditWindow is the protocol layer's one flow-control scheme — BIP's
// credit algorithm (§5.2.2), reused by every ring of preallocated receive
// buffers: the sender spends one credit per buffer and blocks when it has
// none; the receiver grants the buffers it has released back each time
// half the window has been consumed, so a grant is in flight while the
// other half drains. Partitioned by direction, as the DriverDef contract
// requires.
type creditWindow struct {
	half int // buffers per grant: half the window, immutable

	avail    int // send lease: buffers the peer still has free
	consumed int // receive lease: buffers released since the last grant
}

// creditWire is the protocol-specific part: how a grant reaches the
// sender and how the receiver writes one.
type creditWire interface {
	// awaitGrant blocks for the peer's next grant and reports its size.
	awaitGrant(a *vclock.Actor, cs *ConnState) (int, error)
	// returnCredits grants the peer n buffers.
	returnCredits(a *vclock.Actor, cs *ConnState, n int) error
}

func newCreditWindow(size int) *creditWindow {
	return &creditWindow{half: size / 2, avail: size}
}

// acquire spends one credit, blocking for grants first when there is
// none. Grants are read only here, with the window empty: polling for
// them early would make virtual time depend on how far the receiver's
// goroutine happens to have run. A send that fails after acquire forfeits
// its credit — the message is aborting, and the window only errs toward
// fewer buffers outstanding.
func (w *creditWindow) acquire(a *vclock.Actor, cs *ConnState, wire creditWire) error {
	for w.avail == 0 {
		n, err := wire.awaitGrant(a, cs)
		if err != nil {
			return err
		}
		w.avail += n
	}
	w.avail--
	return nil
}

// grant adds n credits the send path met while blocked for some other
// message on a control queue that grants share.
func (w *creditWindow) grant(n int) { w.avail += n }

// release counts one consumed receive buffer and, at half a window,
// returns the lot to the sender.
func (w *creditWindow) release(a *vclock.Actor, cs *ConnState, wire creditWire) error {
	w.consumed++
	if w.consumed < w.half {
		return nil
	}
	if err := wire.returnCredits(a, cs, w.consumed); err != nil {
		return err
	}
	w.consumed = 0
	return nil
}
