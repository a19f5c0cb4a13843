package core

import (
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/vclock"
)

// This file implements the Buffer Management Layer's three policies (§3.4):
//
//   - eagerDyn:  dynamic buffers, eager sending ("a BMM may also adopt an
//     eager behavior and send buffers as soon as they are ready").
//   - aggrDyn:   dynamic buffers with aggregation into groups, exploiting
//     scatter/gather TM capabilities.
//   - statCopy:  static protocol buffers: user data is copied into buffers
//     provided by the TM, with small blocks aggregated inside one buffer.
//
// All three preserve FIFO order on the wire: once a block is delayed
// (send_LATER, or aggregation), every subsequent block of the same message
// queues behind it. A block packed with receive_EXPRESS flushes the policy
// so the receiver can complete its Unpack immediately; this latches any
// pending send_LATER block at that point (at latest at EndPacking),
// which is this implementation's documented resolution of the
// LATER-before-EXPRESS combination.

// eagerDyn sends each block as soon as allowed, one TM buffer per block.
type eagerDyn struct {
	tm      tmPort
	pending [][]byte // delayed blocks; nonempty only while a LATER block holds the line
	dsts    [][]byte // deferred receive destinations
}

func newEagerDyn(tm TM, cs *ConnState) *eagerDyn {
	return &eagerDyn{tm: newTMPort(tm, cs)}
}

func (b *eagerDyn) Name() string { return "dyn-eager" }

func (b *eagerDyn) Pack(a *vclock.Actor, data []byte, sm SendMode, rm RecvMode) error {
	blk := data
	if sm == SendSafer {
		blk = append([]byte(nil), data...)
	}
	if sm != SendLater && len(b.pending) == 0 {
		return b.tm.SendBuffer(a, blk)
	}
	b.pending = append(b.pending, blk) // FIFO: a delayed block holds the line
	if rm == ReceiveExpress {
		return b.Commit(a)
	}
	return nil
}

func (b *eagerDyn) Commit(a *vclock.Actor) error {
	// A mid-loop failure aborts the message, and the policy instance
	// outlives it on the connection: a block left in pending after its
	// SendBuffer ran would go out a second time on the next flush, so the
	// failing block and everything before it leave the queue. The queue
	// keeps its capacity either way.
	for i, p := range b.pending {
		if err := b.tm.SendBuffer(a, p); err != nil {
			b.pending = dropFirst(b.pending, i+1)
			return err
		}
	}
	b.pending = dropFirst(b.pending, len(b.pending))
	return nil
}

func (b *eagerDyn) discard() {
	b.pending = dropFirst(b.pending, len(b.pending))
	b.dsts = dropFirst(b.dsts, len(b.dsts))
}

// dropFirst removes q's first n items in place, keeping its capacity, and
// zeroes the vacated tail so the backing array pins no user buffer.
func dropFirst[T any](q []T, n int) []T {
	k := copy(q, q[n:])
	clear(q[k:])
	return q[:k]
}

func (b *eagerDyn) Unpack(a *vclock.Actor, dst []byte, rm RecvMode) error {
	b.dsts = append(b.dsts, dst)
	if rm == ReceiveExpress {
		return b.Checkout(a)
	}
	return nil
}

func (b *eagerDyn) Checkout(a *vclock.Actor) error {
	// Same shape as Commit: an already-filled destination must not be
	// filled again from the stream after a mid-loop failure.
	for i, d := range b.dsts {
		if err := b.tm.ReceiveBuffer(a, d); err != nil {
			b.dsts = dropFirst(b.dsts, i+1)
			return err
		}
		a.Advance(model.MadUnpackCost)
	}
	b.dsts = dropFirst(b.dsts, len(b.dsts))
	return nil
}

// aggrDyn groups dynamic buffers and flushes them with one scatter/gather
// TM operation.
type aggrDyn struct {
	tm    tmPort
	group [][]byte
	dsts  [][]byte
}

func newAggrDyn(tm TM, cs *ConnState) *aggrDyn {
	return &aggrDyn{tm: newTMPort(tm, cs)}
}

func (b *aggrDyn) Name() string { return "dyn-aggregate" }

func (b *aggrDyn) Pack(a *vclock.Actor, data []byte, sm SendMode, rm RecvMode) error {
	blk := data
	if sm == SendSafer {
		blk = append([]byte(nil), data...)
	}
	b.group = append(b.group, blk) // LATER and CHEAPER stay referenced
	if rm == ReceiveExpress {
		return b.Commit(a)
	}
	return nil
}

func (b *aggrDyn) Commit(a *vclock.Actor) error {
	if len(b.group) == 0 {
		return nil
	}
	// Sent or failed, the group is spent: the message aborts on error.
	err := b.tm.SendBufferGroup(a, b.group)
	b.group = dropFirst(b.group, len(b.group))
	return err
}

func (b *aggrDyn) Unpack(a *vclock.Actor, dst []byte, rm RecvMode) error {
	b.dsts = append(b.dsts, dst)
	if rm == ReceiveExpress {
		return b.Checkout(a)
	}
	return nil
}

func (b *aggrDyn) Checkout(a *vclock.Actor) error {
	if len(b.dsts) == 0 {
		return nil
	}
	n := len(b.dsts)
	err := b.tm.ReceiveSubBufferGroup(a, b.dsts)
	b.dsts = dropFirst(b.dsts, n)
	if err != nil {
		return err
	}
	a.Advance(vclock.Time(n) * model.MadUnpackCost)
	return nil
}

func (b *aggrDyn) discard() {
	b.group = dropFirst(b.group, len(b.group))
	b.dsts = dropFirst(b.dsts, len(b.dsts))
}

// laterRegion is a reserved region of a static buffer whose contents are
// read only when the buffer is flushed (send_LATER).
type laterRegion struct {
	off int
	src []byte
}

// statCopy copies user blocks into TM-provided static buffers, aggregating
// consecutive small blocks inside one buffer and splitting large blocks
// across several. send_LATER blocks get their space reserved and are read
// at flush time.
type statCopy struct {
	tm    tmPort
	cur   []byte // current outgoing static buffer (nil when none)
	fill  int
	later []laterRegion

	rcur []byte // current incoming static buffer
	roff int
	dsts [][]byte
}

func newStatCopy(tm TM, cs *ConnState) *statCopy {
	if tm.StaticSize() <= 0 {
		panic(fmt.Sprintf("core: static-copy BMM over dynamic TM %s", tm.Name()))
	}
	return &statCopy{tm: newTMPort(tm, cs)}
}

func (b *statCopy) Name() string { return "static-copy" }

func (b *statCopy) Pack(a *vclock.Actor, data []byte, sm SendMode, rm RecvMode) error {
	if len(data) == 0 {
		// An empty block must not lease a static buffer it would never
		// fill: the buffer (a flow-control credit, a ring slot) would sit
		// in b.cur until unrelated traffic flushes it — or forever, if
		// the message errors out. Only the EXPRESS flush semantics apply.
		if rm == ReceiveExpress {
			return b.Commit(a)
		}
		return nil
	}
	rest := data
	for {
		if b.cur == nil {
			buf, err := b.tm.ObtainStaticBuffer(a)
			if err != nil {
				return err
			}
			b.cur, b.fill = buf, 0
		}
		space := len(b.cur) - b.fill
		take := len(rest)
		if take > space {
			take = space
		}
		if sm == SendLater {
			// Reserve the space; latch the bytes at flush time.
			b.later = append(b.later, laterRegion{off: b.fill, src: rest[:take]})
		} else {
			copy(b.cur[b.fill:], rest[:take])
		}
		b.fill += take
		rest = rest[take:]
		if b.fill == len(b.cur) {
			if err := b.flush(a); err != nil {
				return err
			}
		}
		if len(rest) == 0 {
			break
		}
	}
	if rm == ReceiveExpress {
		return b.Commit(a)
	}
	return nil
}

// flush latches LATER regions and hands the filled prefix to the TM.
// Mid-pack flushes (a filled static buffer) are the one BMM wire
// operation no commit span covers, so the flush records its own.
func (b *statCopy) flush(a *vclock.Actor) error {
	if b.cur == nil || b.fill == 0 {
		return nil
	}
	for _, lr := range b.later {
		copy(b.cur[lr.off:], lr.src)
	}
	b.later = b.later[:0]
	buf := b.cur[:b.fill]
	b.cur, b.fill = nil, 0
	t0 := a.Now()
	err := b.tm.SendBuffer(a, buf)
	b.tm.cs.ch.span(a, t0, "F:flush static-copy")
	return err
}

func (b *statCopy) Commit(a *vclock.Actor) error { return b.flush(a) }

func (b *statCopy) discard() {
	if b.cur != nil {
		b.tm.unsent(b.cur)
		b.cur, b.fill = nil, 0
	}
	b.later = dropFirst(b.later, len(b.later))
	b.dsts = dropFirst(b.dsts, len(b.dsts))
}

func (b *statCopy) Unpack(a *vclock.Actor, dst []byte, rm RecvMode) error {
	b.dsts = append(b.dsts, dst)
	if rm == ReceiveExpress {
		return b.Checkout(a)
	}
	return nil
}

func (b *statCopy) Checkout(a *vclock.Actor) error {
	for i, dst := range b.dsts {
		if err := b.extract(a, dst); err != nil {
			// Drop what was extracted, the failing destination included:
			// the instance outlives the aborted message, and a destination
			// left queued would be filled from the next message's stream.
			b.dsts = dropFirst(b.dsts, i+1)
			return err
		}
	}
	b.dsts = dropFirst(b.dsts, len(b.dsts))
	// Release an exactly-exhausted buffer right away: symmetric sequences
	// always end on a buffer boundary.
	if b.rcur != nil && b.roff == len(b.rcur) {
		return b.releaseCurrent(a)
	}
	return nil
}

// extract fills one destination from the incoming static buffers.
func (b *statCopy) extract(a *vclock.Actor, dst []byte) error {
	for len(dst) > 0 {
		if b.rcur != nil && b.roff == len(b.rcur) {
			if err := b.releaseCurrent(a); err != nil {
				return err
			}
		}
		if b.rcur == nil {
			buf, err := b.tm.ReceiveStaticBuffer(a)
			if err != nil {
				return err
			}
			b.rcur, b.roff = buf, 0
		}
		n := copy(dst, b.rcur[b.roff:])
		b.roff += n
		dst = dst[n:]
	}
	a.Advance(model.MadUnpackCost)
	return nil
}

// releaseCurrent hands the incoming static buffer back to the TM. The
// reference is dropped first: whether or not the release succeeds, the
// buffer is the protocol's again and must not be read from.
func (b *statCopy) releaseCurrent(a *vclock.Actor) error {
	buf := b.rcur
	b.rcur = nil
	return b.tm.ReleaseStaticBuffer(a, buf)
}

// Exported BMM constructors for externally registered protocol modules
// (core.RegisterDriver): external TMs pick their policy with these.

// NewEagerBMM returns a dynamic-buffer eager policy instance.
func NewEagerBMM(tm TM, cs *ConnState) BMM { return newEagerDyn(tm, cs) }

// NewAggregatingBMM returns a dynamic-buffer aggregating policy instance.
func NewAggregatingBMM(tm TM, cs *ConnState) BMM { return newAggrDyn(tm, cs) }

// NewStaticCopyBMM returns a static-buffer copy policy instance; the TM
// must provide static buffers.
func NewStaticCopyBMM(tm TM, cs *ConnState) BMM { return newStatCopy(tm, cs) }
