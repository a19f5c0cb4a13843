// Fixtures for the packpair analyzer: Begin/End pairing on every path,
// the Pack/Unpack abort contract, and discarded message-path errors.
package packpair

import (
	"errors"

	"core"
)

var errOther = errors.New("other")

// good pairs Begin with End on the only exit.
func good(ch *core.Channel, data []byte) error {
	conn, err := ch.BeginPacking(3)
	if err != nil {
		return err
	}
	if err := conn.Pack(data, core.SendCheaper, core.ReceiveCheaper); err != nil {
		return err // ok: a failed Pack aborted the message and released the lease
	}
	return conn.EndPacking()
}

// deferred covers every exit, panics included.
func deferred(ch *core.Channel, data []byte, f func([]byte)) error {
	conn, err := ch.BeginPacking(1)
	if err != nil {
		return err
	}
	defer conn.EndPacking()
	f(data) // may panic: the deferred End still releases the lease
	return conn.Pack(data, core.SendCheaper, core.ReceiveCheaper)
}

// leakPR1 reproduces the PR 1 leaked-lease shape: bailing out on an
// unrelated error while the message is open leaks the send lease.
func leakPR1(ch *core.Channel, data []byte, other func() error) error {
	conn, err := ch.BeginPacking(0)
	if err != nil {
		return err
	}
	if err := conn.Pack(data, core.SendCheaper, core.ReceiveCheaper); err != nil {
		return err
	}
	if err := other(); err != nil {
		return err // want `can end here without EndPacking`
	}
	return conn.EndPacking()
}

// leakExactMTU reproduces the PR 3 exact-MTU shape: the early return taken
// when the last chunk lands exactly on the MTU boundary skips EndPacking.
func leakExactMTU(ch *core.Channel, data []byte, mtu int) error {
	conn, err := ch.BeginPacking(0)
	if err != nil {
		return err
	}
	for len(data) > 0 {
		n := mtu
		if n > len(data) {
			n = len(data)
		}
		if err := conn.Pack(data[:n], core.SendCheaper, core.ReceiveCheaper); err != nil {
			return err
		}
		data = data[n:]
		if len(data) == 0 && n == mtu {
			return nil // want `can end here without EndPacking`
		}
	}
	return conn.EndPacking()
}

// leakUnpacking checks the receive direction too.
func leakUnpacking(ch *core.Channel, buf []byte, short bool) error {
	conn, err := ch.BeginUnpacking()
	if err != nil {
		return err
	}
	if err := conn.Unpack(buf, core.SendCheaper, core.ReceiveCheaper); err != nil {
		return err
	}
	if short {
		return errOther // want `can end here without EndUnpacking`
	}
	return conn.EndUnpacking()
}

// continueAfterAbort keeps packing after a failed Pack already aborted the
// message (the connection is closed, the lease released: the second Pack
// can only return ErrBadState).
func continueAfterAbort(ch *core.Channel, a, b []byte) error {
	conn, err := ch.BeginPacking(0)
	if err != nil {
		return err
	}
	if err := conn.Pack(a, core.SendCheaper, core.ReceiveCheaper); err != nil {
		_ = conn.Pack(b, core.SendCheaper, core.ReceiveCheaper) // want `continues after a failed Pack/Unpack`
		return err
	}
	return conn.EndPacking()
}

// discards throws away message-path errors.
func discards(ch *core.Channel, data []byte) {
	conn, err := ch.BeginPacking(0)
	if err != nil {
		return
	}
	conn.Pack(data, core.SendCheaper, core.ReceiveCheaper) // want `error of Pack is discarded`
	conn.EndPacking()                                      // want `error of EndPacking is discarded`
}

// discardedConn can never release its lease.
func discardedConn(ch *core.Channel) {
	_, err := ch.BeginPacking(0) // want `connection returned by BeginPacking is discarded`
	_ = err
}

// escapes hands the open connection to the caller: pairing is the
// caller's responsibility, not a finding here.
func escapes(ch *core.Channel) (*core.Connection, error) {
	conn, err := ch.BeginPacking(0)
	if err != nil {
		return nil, err
	}
	return conn, nil
}

// escapesCaller uses a helper that returns an open connection. The lexical
// check does not follow the message out of escapes, so the bail-out that
// leaks here is not flagged: the documented false negative (no in-tree
// function returns an open message).
func escapesCaller(ch *core.Channel, data []byte, other func() error) error {
	conn, err := escapes(ch)
	if err != nil {
		return err
	}
	if err := other(); err != nil {
		return err
	}
	if err := conn.Pack(data, core.SendCheaper, core.ReceiveCheaper); err != nil {
		return err
	}
	return conn.EndPacking()
}

// session keeps an open message between calls.
type session struct{ conn *core.Connection }

// stored parks the open connection in a struct field: the scope belongs
// to whoever reads the field, not to this function.
func stored(ch *core.Channel, s *session) error {
	conn, err := ch.BeginPacking(0)
	if err != nil {
		return err
	}
	s.conn = conn
	return nil
}
