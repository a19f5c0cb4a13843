// Package ignore exercises the //madvet:ignore suppression directive,
// run under the modeflags analyzer. Suppression cases carry no want
// comments (the directive must eat the finding); directive problems are
// checked with block-form wants, since the directive itself consumes the
// line comment.
package ignore

import "core"

// trailing: a directive on the diagnostic's own line suppresses it.
func trailing(conn *core.Connection, buf []byte) error {
	return conn.Pack(buf, 7, core.ReceiveCheaper) //madvet:ignore modeflags -- mode 7 is a driver extension the fixture pretends to have
}

// standalone: a directive on its own line covers the next line.
func standalone(conn *core.Connection, buf []byte) error {
	//madvet:ignore modeflags -- mode 7 is a driver extension the fixture pretends to have
	return conn.Pack(buf, 7, core.ReceiveCheaper)
}

// A directive naming an analyzer this run does not know is itself
// diagnosed (and suppresses nothing — the problem is never suppressible).
func unknownAnalyzer(conn *core.Connection, buf []byte) error {
	/* want "names unknown analyzer nosuchcheck" */ //madvet:ignore nosuchcheck -- not an analyzer of this run
	return conn.Pack(buf, core.SendCheaper, core.ReceiveCheaper)
}

// A directive without a reason does not suppress: both the original
// finding and the directive's own problem land on the line.
func missingReason(conn *core.Connection, buf []byte) error {
	return conn.Pack(buf, 7, core.ReceiveCheaper) /* want "without a reason" "out of range" */ //madvet:ignore modeflags
}

// A directive that suppresses nothing is stale and flagged.
func stale(conn *core.Connection, buf []byte) error {
	return conn.Pack(buf, core.SendCheaper, core.ReceiveCheaper) /* want "suppresses nothing: delete the stale directive" */ //madvet:ignore modeflags -- nothing is out of range here
}

// A directive with no analyzer name at all is malformed.
func malformed(conn *core.Connection, buf []byte) error {
	/* want "malformed //madvet:ignore" */ //madvet:ignore -- a reason with no analyzer
	return conn.Pack(buf, core.SendCheaper, core.ReceiveCheaper)
}
