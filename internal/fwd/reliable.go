package fwd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// This file is the Generic TM's reliable mode: a per-link stop-and-wait
// ACK/NACK protocol with bounded retransmit and exponential virtual-time
// backoff. The paper assumes "transmissions are reliable by construction"
// (§6.1); this extension keeps the library alive on a fabric where they
// are not. Each segment gets a companion control channel carrying
// header-only ACK/NACK frames; data packets grow a link sequence number
// and a header checksum (rhdrSize) and are padded to the MTU so the
// receiver can drain a packet whose header arrived damaged and stay in
// sync for the next one.
//
// Invariant the protocol hangs on: every data-packet arrival produces
// exactly one verdict frame, and every send consumes exactly one verdict
// — both sides of a link are FIFO and at most one packet per link is in
// flight, so verdicts cannot cross or pair up with the wrong packet. A
// damaged verdict frame is indistinguishable from a NACK (retransmit);
// the receiver recognizes the retransmitted link sequence as a duplicate,
// suppresses the delivery and acknowledges again.

// firstBackoff is the first retransmit's virtual-time wait; it doubles per
// attempt.
const firstBackoff = 50 * vclock.Microsecond

// linkKey names one outgoing link: a segment and the neighbor on it.
type linkKey struct {
	seg  int
	peer int
}

// verdict is the decoded outcome of one control frame.
type verdict struct {
	ok      bool        // ACK: the packet was accepted
	damaged bool        // the control frame itself was unreadable
	stamp   vclock.Time // arrival on the control daemon's clock
}

// linkTx serializes senders on one link. The lease queue holds one token:
// whoever pops it owns the link until the packet's verdict is in (the
// same release-stamp pattern as the core channel's send lease, but held
// across the acknowledgment round trip, which the core lease is not).
// lseq is owned by the lease holder.
type linkTx struct {
	lease    *simnet.Queue[vclock.Time]
	verdicts *simnet.Queue[verdict]
	lseq     uint32
}

// relState is one VC handle's reliability machinery.
type relState struct {
	mu    sync.Mutex
	links map[linkKey]*linkTx
}

func newRelState() *relState {
	return &relState{links: make(map[linkKey]*linkTx)}
}

// link returns (creating) the transmit state for one outgoing link.
func (r *relState) link(seg, peer int) *linkTx {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := linkKey{seg, peer}
	lt := r.links[k]
	if lt == nil {
		lt = &linkTx{
			lease:    simnet.NewQueue[vclock.Time](),
			verdicts: simnet.NewQueue[verdict](),
		}
		lt.lease.Push(0)
		r.links[k] = lt
	}
	return lt
}

// closeAll wakes every sender blocked on a lease or a verdict.
func (r *relState) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, lt := range r.links {
		lt.lease.Close()
		lt.verdicts.Close()
	}
}

// relCounters are the VC's live reliability/degradation event counters.
// They count in every mode: the drop and relay counters also track the
// non-reliable daemon's graceful-degradation paths.
type relCounters struct {
	packets     atomic.Int64
	retransmits atomic.Int64
	acks        atomic.Int64
	nacks       atomic.Int64
	ctlDamaged  atomic.Int64
	backoffs    atomic.Int64
	dups        atomic.Int64

	dropHeader atomic.Int64
	dropLen    atomic.Int64
	dropCRC    atomic.Int64
	dropRoute  atomic.Int64
	dropClosed atomic.Int64

	relayedCorrupt   atomic.Int64
	deliveredCorrupt atomic.Int64
}

// RelStats is a snapshot of a VC handle's reliability counters.
type RelStats struct {
	Packets     int64 // first transmissions on reliable links
	Retransmits int64 // re-sends after a NACK or damaged verdict
	Acks        int64 // positive verdicts consumed
	Nacks       int64 // negative verdicts consumed
	CtlDamaged  int64 // verdict frames that arrived unreadable
	Backoffs    int64 // backoff waits taken before retransmitting
	DupSuppress int64 // duplicate packets recognized and suppressed

	DropHeader int64 // packets dropped: damaged/unparseable header
	DropLen    int64 // packets dropped: length beyond the MTU
	DropCRC    int64 // packets dropped: payload checksum mismatch
	DropRoute  int64 // packets dropped: no route to the destination
	DropClosed int64 // packets dropped: local delivery raced shutdown

	RelayedCorrupt   int64 // non-reliable: mid-route CRC failures relayed to the edge
	DeliveredCorrupt int64 // non-reliable: corrupt chunks surfaced to Unpack
}

// RelStats snapshots the handle's reliability counters.
func (v *VC) RelStats() RelStats {
	c := &v.ctr
	return RelStats{
		Packets:     c.packets.Load(),
		Retransmits: c.retransmits.Load(),
		Acks:        c.acks.Load(),
		Nacks:       c.nacks.Load(),
		CtlDamaged:  c.ctlDamaged.Load(),
		Backoffs:    c.backoffs.Load(),
		DupSuppress: c.dups.Load(),

		DropHeader: c.dropHeader.Load(),
		DropLen:    c.dropLen.Load(),
		DropCRC:    c.dropCRC.Load(),
		DropRoute:  c.dropRoute.Load(),
		DropClosed: c.dropClosed.Load(),

		RelayedCorrupt:   c.relayedCorrupt.Load(),
		DeliveredCorrupt: c.deliveredCorrupt.Load(),
	}
}

// Add accumulates another snapshot (for cluster-wide totals).
func (s *RelStats) Add(o RelStats) {
	s.Packets += o.Packets
	s.Retransmits += o.Retransmits
	s.Acks += o.Acks
	s.Nacks += o.Nacks
	s.CtlDamaged += o.CtlDamaged
	s.Backoffs += o.Backoffs
	s.DupSuppress += o.DupSuppress
	s.DropHeader += o.DropHeader
	s.DropLen += o.DropLen
	s.DropCRC += o.DropCRC
	s.DropRoute += o.DropRoute
	s.DropClosed += o.DropClosed
	s.RelayedCorrupt += o.RelayedCorrupt
	s.DeliveredCorrupt += o.DeliveredCorrupt
}

// collect publishes the handle's counters in the fwd/* namespace of the
// session registry. relCounters is their only home: events cost one
// atomic add, and the registry pulls the values at snapshot time, where
// same-name emissions of a channel's handles sum to cluster totals.
func (c *relCounters) collect(emit func(name string, v int64)) {
	emit("fwd/rel/packet", c.packets.Load())
	emit("fwd/rel/retransmit", c.retransmits.Load())
	emit("fwd/rel/ack", c.acks.Load())
	emit("fwd/rel/nack", c.nacks.Load())
	emit("fwd/rel/ctl-damaged", c.ctlDamaged.Load())
	emit("fwd/rel/backoff", c.backoffs.Load())
	emit("fwd/rel/dup-suppressed", c.dups.Load())
	emit("fwd/drop/header", c.dropHeader.Load())
	emit("fwd/drop/len", c.dropLen.Load())
	emit("fwd/drop/crc", c.dropCRC.Load())
	emit("fwd/drop/route", c.dropRoute.Load())
	emit("fwd/drop/closed", c.dropClosed.Load())
	emit("fwd/relayed-corrupt", c.relayedCorrupt.Load())
	emit("fwd/delivered-corrupt", c.deliveredCorrupt.Load())
}

// Err reports the VC handle's fatal error: non-nil once retries have been
// exhausted or the daemon met an unrecoverable condition. The handle is
// closed (or closing) when Err is non-nil.
func (v *VC) Err() error {
	v.failMu.Lock()
	defer v.failMu.Unlock()
	return v.failErr
}

// fail records the handle's first fatal error and shuts it down. Close
// runs on its own goroutine: fail is called from daemons and senders that
// Close must be able to join.
func (v *VC) fail(err error) {
	v.failMu.Lock()
	if v.failErr == nil {
		v.failErr = err
	}
	v.failMu.Unlock()
	go v.Close()
}

// errOr substitutes the fatal error, when set, for a generic one.
func (v *VC) errOr(def error) error {
	if err := v.Err(); err != nil {
		return err
	}
	return def
}

// sendReliable ships one packet on a link under stop-and-wait: acquire
// the link, stamp a fresh link sequence, transmit, and consume exactly
// one verdict — retransmitting with exponential virtual-time backoff
// until acknowledged or out of retries. Exhaustion is fatal for the
// whole handle (the stream behind the packet cannot advance).
func (v *VC) sendReliable(seg int, a *vclock.Actor, next int, h header, hbuf *hdrBuf, payload []byte) error {
	lt := v.rel.link(seg, next)
	t0 := a.Now()
	stamp, ok := lt.lease.Pop()
	if !ok {
		return v.errOr(core.ErrClosed)
	}
	a.Sync(stamp)
	if a.Now() > t0 {
		v.rec.RecordT(a.Name(), t0, a.Now(), "w:lease-link", h.Trace, h.Hop)
	}
	defer func() { lt.lease.PushIfOpen(a.Now()) }()

	lt.lseq++
	h.LSeq = lt.lseq
	hb := h.encodeR(hbuf)
	// Fixed framing: every reliable packet occupies a full MTU on the
	// wire, so a receiver holding a damaged header still knows how much
	// to drain. Payloads already MTU-sized ship as-is; a shorter one is
	// zero-padded in a frame that goes back once the link has its verdict.
	wire := payload
	if len(wire) < v.mtu {
		wire = v.frame(v.mtu)
		defer v.freeFrame(wire)
		clear(wire[copy(wire, payload):])
	}
	backoff := firstBackoff
	for attempt := 0; ; attempt++ {
		txAt := a.Now()
		if err := rawSend(v.chans[seg], a, next, hb, wire); err != nil {
			return err
		}
		if attempt == 0 {
			v.ctr.packets.Add(1)
		} else {
			v.ctr.retransmits.Add(1)
			// Retransmissions carry the originating trace ID, so a merged
			// export shows which message's journey paid the loss.
			v.rec.RecordT(a.Name(), txAt, a.Now(), "t:retransmit", h.Trace, h.Hop)
		}
		vd, ok := lt.verdicts.Pop()
		if !ok {
			return v.errOr(core.ErrClosed)
		}
		a.Sync(vd.stamp)
		if vd.ok {
			v.ctr.acks.Add(1)
			return nil
		}
		if vd.damaged {
			v.ctr.ctlDamaged.Add(1)
		} else {
			v.ctr.nacks.Add(1)
		}
		if attempt >= v.spec.MaxRetries {
			err := fmt.Errorf("fwd: %s: packet for %d via %d (link seq %d) unacknowledged after %d retransmits",
				v.spec.Name, h.Dst, next, h.LSeq, attempt)
			v.fail(err)
			return err
		}
		bt := a.Now()
		a.Advance(backoff)
		v.rec.RecordT(a.Name(), bt, a.Now(), "b:backoff", h.Trace, h.Hop)
		v.ctr.backoffs.Add(1)
		backoff *= 2
	}
}

// sendVerdict emits one header-only control frame on the segment's
// control channel. Failures are shutdown races: the sender blocked on
// this verdict is released by Close instead.
func (v *VC) sendVerdict(a *vclock.Actor, segIdx, to int, ok bool, hb *hdrBuf) {
	h := header{Origin: v.rank, Dst: to}
	if ok {
		h.Flags = flagAck
	} else {
		h.Flags = flagNack
	}
	_ = v.ctls[segIdx].Send(a, to, func(conn *core.Connection) error {
		return conn.Pack(h.encodeR(hb), core.SendCheaper, core.ReceiveExpress)
	})
}

// ctlDaemon serves one segment's control channel: it decodes each verdict
// frame and routes it to the link's waiting sender. An unreadable frame
// (faults strike control traffic too) becomes a "damaged" verdict, which
// the sender treats as a NACK — the duplicate-suppression path absorbs
// the resulting retransmit.
func (v *VC) ctlDaemon(segIdx int, ch *core.Channel) {
	a := vclock.NewActor(fmt.Sprintf("%s/n%d/seg%d-ctl", v.spec.Name, v.rank, segIdx))
	hb := make([]byte, rhdrSize)
	for {
		peer := -1
		uerr := ch.Recv(a, func(conn *core.Connection) error {
			peer = conn.Remote()
			return conn.Unpack(hb, core.SendCheaper, core.ReceiveExpress)
		})
		if peer < 0 || (uerr != nil && v.closing()) {
			return // channel closed, or a receive cut short by Close
		}
		vd := verdict{stamp: a.Now()}
		if uerr == nil {
			if h, derr := decodeHeaderR(hb); derr == nil {
				vd.ok = h.Flags&flagAck != 0
			} else {
				vd.damaged = true
			}
		} else {
			vd.damaged = true
		}
		v.rel.link(segIdx, peer).verdicts.PushIfOpen(vd)
	}
}

// closing reports whether Close has begun.
func (v *VC) closing() bool { return v.closed.Load() }
