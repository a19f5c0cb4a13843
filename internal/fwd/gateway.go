package fwd

import (
	"errors"
	"fmt"

	"madeleine2/internal/core"
	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// This file is the gateway side of the Generic TM (§6.1–§6.2): a receiver
// daemon per (node, real channel) that either delivers packets locally or
// hands them to a forwarding pipeline — two threads exchanging two static
// buffers (dual-buffering, Fig. 9) — whose virtual-time behaviour follows
// the paper's pipeline-period analysis:
//
//	period = max(T_recv, T_send_contended, busFloor) + stepOverhead
//
// T_recv arrives emergently through the incoming packets' stamps; the
// send thread adds the per-step software overhead (≈50 µs, §6.2.2), the
// PCI bus's full-duplex floor (§6.2.2) and the DMA-over-PIO penalty
// (§6.2.3) through the node's bus model.
//
// Remote-derived anomalies never panic the daemon. In reliable mode every
// damaged packet is counted, drained and NACKed; without the protocol the
// daemon degrades as far as the wire format allows: a corrupt payload is
// relayed for the edge to detect, an unroutable packet is dropped, and
// only a damaged header — which hides the payload length and therefore
// desynchronizes the byte stream beyond recovery — is fatal, for the
// handle (VC.Err), not the process.

// token is one of a pipeline's two forwarding buffers.
type token struct {
	buf   []byte
	stamp vclock.Time // when the buffer was freed by the send thread
}

// workItem is a received packet waiting on the pipeline's send thread.
type workItem struct {
	hdr     header
	payload []byte // aliases the token's buffer
	tok     *token
	stampIn vclock.Time // receive completion on the daemon's clock
}

// pipeline is one forwarding direction on a gateway: packets arriving on
// segment inSeg leaving on segment outSeg.
type pipeline struct {
	v      *VC
	inSeg  int
	outSeg int
	free   *simnet.Queue[*token]
	work   *simnet.Queue[workItem]
}

// pipelineBuffers is the dual-buffering depth (Fig. 9 uses two).
const pipelineBuffers = 2

// pipe returns (creating and starting) the pipeline for a direction. A
// pipeline created after Close has begun is stillborn: its queues close
// immediately so the requesting daemon unblocks and exits. Close joins the
// send thread with the daemons (only a running daemon calls pipe).
func (v *VC) pipe(inSeg, outSeg int) *pipeline {
	v.mu.Lock()
	defer v.mu.Unlock()
	key := [2]int{inSeg, outSeg}
	p := v.pipes[key]
	if p == nil {
		p = &pipeline{
			v:      v,
			inSeg:  inSeg,
			outSeg: outSeg,
			free:   simnet.NewQueue[*token](),
			work:   simnet.NewQueue[workItem](),
		}
		for i := 0; i < pipelineBuffers; i++ {
			p.free.Push(&token{buf: make([]byte, v.mtu)})
		}
		v.pipes[key] = p
		if v.closing() {
			p.work.Close()
			p.free.Close()
		}
		v.daemons.Add(1)
		go p.run()
	}
	return p
}

// daemon serves one real channel of the virtual channel on this rank, one
// packet per message scope.
func (v *VC) daemon(segIdx int, ch *core.Channel) {
	d := &daemonState{
		v:        v,
		a:        vclock.NewActor(fmt.Sprintf("%s/n%d/seg%d-rx", v.spec.Name, v.rank, segIdx)),
		segIdx:   segIdx,
		ch:       ch,
		lastLSeq: make(map[int]uint32),
		scratch:  make([]byte, v.mtu),
	}
	for d.recv() {
	}
}

// daemonState carries one receiver daemon's per-loop context.
type daemonState struct {
	v      *VC
	a      *vclock.Actor
	segIdx int
	ch     *core.Channel

	hdrAt      vclock.Time
	throttleAt vclock.Time
	lastLSeq   map[int]uint32 // previous hop -> last accepted link seq; filled in reliable mode only
	scratch    []byte         // one MTU: drain target for packets being dropped
	hb         hdrBuf         // the incoming header block, then the verdict's
}

// daemonIO classifies a failure that stops a daemon: shutdown is quiet,
// anything else surfaces on the handle.
func (v *VC) daemonIO(a *vclock.Actor, err error) {
	if !errors.Is(err, core.ErrClosed) {
		v.fail(fmt.Errorf("fwd daemon %s: %w", a.Name(), err))
	}
}

// throttle is the future-work bandwidth control: regulate the incoming
// flow by pacing payload receptions at the configured average rate (§7).
func (d *daemonState) throttle(n int) {
	if d.v.spec.BandwidthControl > 0 {
		d.throttleAt += vclock.TimeForBytes(n, d.v.spec.BandwidthControl)
		d.a.Sync(d.throttleAt)
	}
}

// fate is what the daemon does with one packet once its header is read.
type fate int

const (
	fateDrop    fate = iota // drain the frame and discard it
	fateDup                 // a retransmit of the last accepted packet: discard, acknowledge again
	fateDeliver             // this rank is the destination
	fateForward             // hand to the pipeline toward the next hop
)

// recv serves one packet, through the same stages in both modes: decode
// the header, classify the packet's fate, pick the buffer its frame
// drains into, drain it, close the message scope, verify the payload
// checksum, act on the fate, and answer the previous hop with a verdict
// when the channel is reliable. Spec.Reliable is read only where the wire
// format differs: the header codec, the frame length, what damage costs,
// and the verdict. Reports whether the daemon keeps serving; a closed
// channel ends it quietly.
func (d *daemonState) recv() bool {
	v, a := d.v, d.a
	rel := v.spec.Reliable
	hsize, decode := hdrSize, decodeHeader
	if rel {
		hsize, decode = rhdrSize, decodeHeaderR
	}

	var (
		prev  int // the previous hop
		h     header
		herr  error
		what  = fateDrop
		hp    hop // fateForward: the route toward h.Dst
		p     *pipeline
		tok   *token
		frame []byte // the packet's payload block as drained off the wire
	)
	// The stages that read the wire run inside the message scope, which
	// Recv closes whatever stops them: a daemon on its way out must not
	// leave the segment's receive lease wedged.
	err := d.ch.Recv(a, func(conn *core.Connection) error {
		prev = conn.Remote()
		hb := d.hb[:hsize]
		if err := conn.Unpack(hb, core.SendCheaper, core.ReceiveExpress); err != nil {
			return err
		}
		d.hdrAt = a.Now() // the packet's wire activity starts here
		h, herr = decode(hb)

		var damage error // the header cannot be trusted for the payload length
		last, seen := d.lastLSeq[prev]
		switch {
		case herr != nil:
			v.ctr.dropHeader.Add(1)
			damage = herr
		case h.Len < 0 || h.Len > v.mtu:
			v.ctr.dropLen.Add(1)
			damage = fmt.Errorf("packet length %d (MTU %d), corrupted header", h.Len, v.mtu)
		case seen && h.LSeq == last:
			// The retransmit of a packet whose acknowledgment was lost.
			what = fateDup
			v.ctr.dups.Add(1)
		case h.Dst == v.rank && v.streams[h.Origin] != nil:
			what = fateDeliver
		default: // a packet for this rank from no member has no route either
			var ok bool
			if hp, ok = v.next[h.Dst]; ok {
				what = fateForward
			} else {
				v.ctr.dropRoute.Add(1)
			}
		}
		if herr == nil {
			d.throttle(h.Len)
		}

		// A reliable packet is padded to exactly one MTU on the wire, so
		// every fate, a damaged header included, can drain it and keep the
		// stream aligned. A best-effort packet is as long as its header
		// says: once that is unreadable the stream is lost, for the handle
		// (VC.Err), not the process.
		n := v.mtu
		if !rel {
			if damage != nil {
				return fmt.Errorf("unrecoverable: %w", damage)
			}
			n = h.Len
		}

		switch what {
		case fateDeliver:
			frame = v.frame(n) // the destination stream's from here on; ReceiveBuffer frees it
		case fateForward:
			// One of the pipeline's two buffers: the dual-buffer exchange
			// point (Fig. 9).
			p = v.pipe(d.segIdx, hp.seg)
			var ok bool
			if tok, ok = p.free.Pop(); !ok {
				return core.ErrClosed // pipeline closed mid-message
			}
			a.Sync(tok.stamp)
			frame = tok.buf[:n]
		default:
			frame = d.scratch[:n]
		}
		if n == 0 {
			return nil // a best-effort empty message is header-only
		}
		return conn.Unpack(frame, core.SendCheaper, core.ReceiveCheaper)
	})
	if err != nil {
		v.daemonIO(a, err)
		return false
	}

	var payload []byte
	corrupt := false
	if what == fateDeliver || what == fateForward {
		payload = frame[:h.Len]
		corrupt = checksum(payload) != h.CRC
	}
	if corrupt {
		switch {
		case rel:
			// The previous hop still holds the packet: refuse it, and
			// give back what was taken to hold it.
			v.ctr.dropCRC.Add(1)
			if tok != nil {
				p.free.PushIfOpen(tok)
			}
			if what == fateDeliver {
				v.freeFrame(frame)
			}
			what = fateDrop
		case what == fateDeliver:
			// Nobody to ask for a resend: deliver flagged, for
			// ReceiveBuffer to report.
			v.ctr.deliveredCorrupt.Add(1)
		default:
			// Still routable, so relay it and let the delivering edge
			// detect it. Dropping here would silently desync the
			// destination's stream, which cannot learn a packet died.
			v.ctr.relayedCorrupt.Add(1)
		}
	}

	switch what {
	case fateDeliver:
		// Into the origin's stream; a closing stream stops the daemon.
		if !v.streams[h.Origin].q.PushIfOpen(chunk{
			data: payload, stamp: a.Now(), corrupt: corrupt,
			first: h.Flags&flagFirst != 0, last: h.Flags&flagLast != 0, aborted: h.Flags&flagAbort != 0,
			trace: h.Trace, hop: h.Hop + 1, // delivery hop: sorts after every relay
		}) {
			v.ctr.dropClosed.Add(1)
			return false
		}
	case fateForward:
		// The incoming transfer's wire interval: from the header's arrival
		// through the payload's byte time (the receive side of Fig. 9),
		// tagged with the originating trace at this gateway's relay hop.
		v.rec.RecordT(a.Name(), d.hdrAt, d.hdrAt+d.ch.Link(h.Len).ByteTime(h.Len), "r", h.Trace, h.Hop+1)
		if !p.work.PushIfOpen(workItem{hdr: h, payload: payload, tok: tok, stampIn: a.Now()}) {
			return false
		}
	}
	if !rel {
		return true
	}
	// Exactly one verdict per arrival, after the packet is truly taken (or
	// refused): an acknowledged packet is never lost to a full pipeline or
	// a closing stream.
	if what == fateDeliver || what == fateForward {
		d.lastLSeq[prev] = h.LSeq
	}
	vAt := a.Now()
	v.sendVerdict(a, d.segIdx, prev, what != fateDrop, &d.hb)
	if what == fateDrop && herr == nil && h.Trace != 0 {
		// A NACK interrupts a traced message's journey: tag the verdict
		// send so the merged export shows where the loss was paid.
		v.rec.RecordT(a.Name(), vAt, a.Now(), "n:nack", h.Trace, h.Hop+1)
	}
	return true
}

// run is the pipeline's send thread.
func (p *pipeline) run() {
	v := p.v
	defer v.daemons.Done()
	a := vclock.NewActor(fmt.Sprintf("%s/n%d/%d->%d-tx", v.spec.Name, v.rank, p.inSeg, p.outSeg))
	bus := v.ch.Session().World().Node(v.rank).Bus()
	inCh, outCh := v.chans[p.inSeg], v.chans[p.outSeg]
	var prevReady, prevSendEnd vclock.Time
	var hb hdrBuf
	for {
		w, ok := p.work.Pop()
		if !ok {
			return
		}
		n := len(w.payload)
		rxLink, txLink := inCh.Link(n), outCh.Link(n)

		// A step is contended when packets arrive too densely for the
		// pipeline to alternate receive and send: unless the incoming gap
		// covers a full receive plus a full send, the two transfers
		// overlap on the bus. Bandwidth control (§7) widens the incoming
		// gap and is how the overlap is broken deliberately.
		inGap := rxLink.Time(n)
		if v.spec.BandwidthControl > 0 {
			inGap = vclock.Max(inGap, vclock.TimeForBytes(n, v.spec.BandwidthControl))
		}
		contended := inGap < rxLink.Time(n)+txLink.Time(n)

		ready := vclock.Max(w.stampIn, prevSendEnd)
		if contended {
			// Full-duplex PCI saturation: 2n bytes cross the bus per
			// step, and the per-step software overhead stays serial.
			ready = vclock.Max(ready, prevReady+bus.Floor(n)+model.GatewayStepOverhead)
		}
		a.Sync(ready)
		a.Advance(model.GatewayStepOverhead) // buffer exchange + header processing

		if contended {
			// DMA-over-PIO arbitration: the send slows while the NIC is
			// mastering the bus with the next packet's receive.
			_, ttxEff := bus.StepTimes(rxLink, txLink, n)
			if extra := ttxEff - txLink.Time(n); extra > 0 {
				a.Advance(extra)
			}
		}
		// Copy avoidance (§6.1): receiving into the outgoing protocol's
		// static buffer saves the gateway copy except when both sides use
		// static buffers (or the ablation forces the copy).
		if v.spec.ForceGatewayCopy || (inCh.UsesStatic(n) && outCh.UsesStatic(n)) {
			a.Advance(vclock.TimeForBytes(n, model.MadCopyBandwidth))
		}

		w.hdr.Hop++ // one more relay on the message's journey
		if err := v.sendPacketOn(p.outSeg, a, v.next[w.hdr.Dst].next, w.hdr, &hb, w.payload); err != nil {
			if !errors.Is(err, core.ErrClosed) {
				v.fail(fmt.Errorf("fwd pipeline %s: %w", a.Name(), err))
			}
			return
		}
		v.rec.RecordT(a.Name(), ready, a.Now(), "s", w.hdr.Trace, w.hdr.Hop)
		prevReady, prevSendEnd = ready, a.Now()

		w.tok.stamp = a.Now()
		if !p.free.PushIfOpen(w.tok) {
			return
		}
	}
}
