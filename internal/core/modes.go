// Package core implements Madeleine II: a multi-protocol, multi-adapter
// communication library offering an incremental message construction
// interface (pack/unpack with semantic flags) over per-network protocol
// management modules. It is the paper's primary contribution (§2–§4).
//
// The layering follows Fig. 2/3 of the paper:
//
//	application ── Channel/Connection (pack, unpack)
//	     │  Switch step: pick the best Transmission Module per block
//	Buffer Management Modules (eager / aggregating / static-copy policies)
//	     │  commit / checkout
//	Transmission Modules (one per transfer method of each network API)
//	     │
//	Protocol Management Modules (BIP, SISCI, TCP, VIA, SBP)
//	     │
//	simulated drivers (internal/bip, internal/sisci, ...)
//
// Messages are NOT self-described: pack and unpack sequences must be
// strictly symmetrical in sizes and mode combinations (§2.2), which is what
// lets every block travel with zero framing overhead.
package core

import (
	"errors"
	"fmt"
)

// SendMode is the emission flag of mad_pack (§2.2).
type SendMode int

const (
	// SendCheaper is the default: the library may handle the block however
	// is most efficient; the caller must leave the data unchanged until the
	// send operation completes.
	SendCheaper SendMode = iota
	// SendSafer requires the library to protect the block against later
	// modification of the caller's memory (i.e. copy if needed).
	SendSafer
	// SendLater tells the library not to read the block's contents before
	// EndPacking: modifications between Pack and EndPacking must be
	// reflected in the message.
	SendLater
)

// String returns the paper's flag spelling.
func (m SendMode) String() string {
	switch m {
	case SendCheaper:
		return "send_CHEAPER"
	case SendSafer:
		return "send_SAFER"
	case SendLater:
		return "send_LATER"
	default:
		return fmt.Sprintf("SendMode(%d)", int(m))
	}
}

// RecvMode is the reception flag of mad_pack/mad_unpack (§2.2).
type RecvMode int

const (
	// ReceiveCheaper is the default: extraction may be deferred up to
	// EndUnpacking so the library can batch and pipeline.
	ReceiveCheaper RecvMode = iota
	// ReceiveExpress guarantees the block is available as soon as Unpack
	// returns; mandatory when the value steers subsequent unpacking.
	ReceiveExpress
)

// String returns the paper's flag spelling.
func (m RecvMode) String() string {
	switch m {
	case ReceiveCheaper:
		return "receive_CHEAPER"
	case ReceiveExpress:
		return "receive_EXPRESS"
	default:
		return fmt.Sprintf("RecvMode(%d)", int(m))
	}
}

// ModeError reports a Pack or Unpack whose mode pair lies outside Table 1:
// the send modes are send_CHEAPER, send_SAFER and send_LATER, the receive
// modes receive_CHEAPER and receive_EXPRESS. The call aborts the message,
// like any failed Pack or Unpack.
type ModeError struct {
	Op   string // "Pack" or "Unpack"
	Send SendMode
	Recv RecvMode
}

func (e *ModeError) Error() string {
	return fmt.Sprintf("core: %s(%v, %v): mode outside Table 1", e.Op, e.Send, e.Recv)
}

// inTable1 reports whether both modes name a Table-1 flag.
func inTable1(sm SendMode, rm RecvMode) bool {
	return uint(sm) <= uint(SendLater) && uint(rm) <= uint(ReceiveExpress)
}

// Errors shared across the library.
var (
	// ErrNoStatic reports that a transmission module does not provide
	// protocol-level static buffers (Table 2: "some functions may not be
	// relevant for a specific TM").
	ErrNoStatic = errors.New("core: transmission module has no static buffers")
	// ErrClosed reports use of a released channel or session.
	ErrClosed = errors.New("core: closed")
	// ErrEmptyMessage reports EndPacking on a message with no packed data.
	ErrEmptyMessage = errors.New("core: message contains no packed block")
	// ErrBadState reports pack/unpack calls outside a message or on the
	// wrong connection direction.
	ErrBadState = errors.New("core: operation outside begin/end message scope")
)

// asymmetryError builds the diagnostic for detected pack/unpack asymmetry.
// (The real library documents "unspecified behavior"; the simulation
// detects the cases it can and fails loudly.)
func asymmetryError(what string, want, got int) error {
	return fmt.Errorf("core: asymmetric pack/unpack sequence: %s: sender %d vs receiver %d", what, want, got)
}
