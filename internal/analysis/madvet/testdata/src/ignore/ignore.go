// Package ignore exercises the //madvet:ignore suppression directive,
// run under the packpair analyzer. Suppression cases carry no want
// comments (the directive must eat the finding); directive problems are
// checked with block-form wants, since the directive itself consumes the
// line comment.
package ignore

import "core"

// trailing: a directive on the diagnostic's own line suppresses it.
func trailing(ch *core.Channel, cond bool) error {
	conn, err := ch.BeginPacking(1)
	if err != nil {
		return err
	}
	if cond {
		return nil //madvet:ignore packpair -- connection parked in the close registry; the drain path ends it
	}
	return conn.EndPacking()
}

// standalone: a directive on its own line covers the next line.
func standalone(ch *core.Channel, cond bool) error {
	conn, err := ch.BeginPacking(1)
	if err != nil {
		return err
	}
	if cond {
		//madvet:ignore packpair -- connection parked in the close registry; the drain path ends it
		return nil
	}
	return conn.EndPacking()
}

// A directive naming an analyzer this run does not know is itself
// diagnosed (and suppresses nothing — the problem is never suppressible).
func unknownAnalyzer(ch *core.Channel) error {
	conn, err := ch.BeginPacking(1)
	if err != nil {
		return err
	}
	/* want "names unknown analyzer nosuchcheck" */ //madvet:ignore nosuchcheck -- not an analyzer of this run
	return conn.EndPacking()
}

// A directive without a reason does not suppress: both the original
// finding and the directive's own problem land on the line.
func missingReason(ch *core.Channel, cond bool) error {
	conn, err := ch.BeginPacking(1)
	if err != nil {
		return err
	}
	if cond {
		return nil /* want "without a reason" "can end here without EndPacking" */ //madvet:ignore packpair
	}
	return conn.EndPacking()
}

// A directive that suppresses nothing is stale and flagged.
func stale(ch *core.Channel) error {
	conn, err := ch.BeginPacking(1)
	if err != nil {
		return err
	}
	return conn.EndPacking() /* want "suppresses nothing: delete the stale directive" */ //madvet:ignore packpair -- nothing ever leaked here
}

// A directive with no analyzer name at all is malformed.
func malformed(ch *core.Channel) error {
	conn, err := ch.BeginPacking(1)
	if err != nil {
		return err
	}
	/* want "malformed //madvet:ignore" */ //madvet:ignore -- a reason with no analyzer
	return conn.EndPacking()
}
