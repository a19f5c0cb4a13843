// Fixtures for the modeflags analyzer: Table 1 flag validity, LATER
// commit discipline, and EXPRESS/CHEAPER ordering.
package modeflags

import "core"

// badFlags forces one mode family's constants into the other's argument.
func badFlags(conn *core.Connection, buf []byte) {
	_ = conn.Pack(buf, core.SendMode(core.ReceiveExpress), core.ReceiveCheaper) // want `not interchangeable`
	_ = conn.Unpack(buf, core.SendCheaper, core.RecvMode(core.SendLater))       // want `not interchangeable`
	_ = conn.Pack(buf, 7, core.ReceiveCheaper)                                  // want `out of range`
	_ = conn.Unpack(buf, core.SendCheaper, 3)                                   // want `out of range`
	_ = conn.EndPacking()
	_ = conn.EndUnpacking()
}

// goodFlags uses every legal combination.
func goodFlags(conn *core.Connection, buf []byte) {
	_ = conn.Pack(buf, core.SendCheaper, core.ReceiveExpress)
	_ = conn.Pack(buf, core.SendSafer, core.ReceiveCheaper)
	_ = conn.Pack(buf, core.SendLater, core.ReceiveCheaper)
	_ = conn.EndPacking()
}

// laterNoCommit mutates a send_LATER buffer after Pack in a function that
// never commits: whether the write reaches the wire is undefined.
func laterNoCommit(conn *core.Connection, buf []byte) {
	_ = conn.Pack(buf, core.SendLater, core.ReceiveCheaper)
	buf[0] = 1 // want `send_LATER buffer written after Pack but the function never commits`
}

// laterTable1NoEnd is the same mistake with the message begun in the
// function: it packs LATER and never reaches EndPacking.
func laterTable1NoEnd(ch *core.Channel, buf []byte) error {
	conn, err := ch.BeginPacking(1)
	if err != nil {
		return err
	}
	if err := conn.Pack(buf, core.SendLater, core.ReceiveCheaper); err != nil {
		return err
	}
	buf[0] = 1 // want `send_LATER buffer written after Pack but the function never commits`
	return nil
}

// laterInSendScope writes a LATER buffer inside a Send closure: the scope
// commits the message after the closure returns, so the write is legal.
func laterInSendScope(ch *core.Channel, buf []byte) error {
	return ch.Send(1, func(conn *core.Connection) error {
		if err := conn.Pack(buf, core.SendLater, core.ReceiveCheaper); err != nil {
			return err
		}
		buf[0] = 1
		return nil
	})
}

// laterCommitted is the legal LATER pattern: mutate, then EndPacking
// flushes the deferred block.
func laterCommitted(conn *core.Connection, buf []byte) {
	_ = conn.Pack(buf, core.SendLater, core.ReceiveCheaper)
	buf[0] = 1
	_ = conn.EndPacking()
}

// expressAfterCheaper defeats pipelining: the express guarantee forces
// completion of the deferred cheaper block.
func expressAfterCheaper(conn *core.Connection, a, b []byte) {
	_ = conn.Unpack(a, core.SendCheaper, core.ReceiveCheaper)
	_ = conn.Unpack(b, core.SendCheaper, core.ReceiveExpress) // want `receive_EXPRESS block extracted after a receive_CHEAPER`
	_ = conn.EndUnpacking()
}

// expressLeads is the paper's intended order: steering data first.
func expressLeads(conn *core.Connection, a, b []byte) {
	_ = conn.Unpack(a, core.SendCheaper, core.ReceiveExpress)
	_ = conn.Unpack(b, core.SendCheaper, core.ReceiveCheaper)
	_ = conn.EndUnpacking()
}

// expressNextMessage: an End boundary resets the ordering state.
func expressNextMessage(conn *core.Connection, a, b []byte) {
	_ = conn.Unpack(a, core.SendCheaper, core.ReceiveCheaper)
	_ = conn.EndUnpacking()
	_ = conn.Unpack(b, core.SendCheaper, core.ReceiveExpress)
	_ = conn.EndUnpacking()
}
