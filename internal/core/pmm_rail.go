package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"madeleine2/internal/metrics"
	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// This file implements multi-rail channels: a channel opened over several
// adapters at once (same or mixed protocol modules — the paper's
// "multi-adapter" axis, §2.1). Large dynamic blocks are striped into
// per-rail chunks at the channel's stripe size and the chunks travel
// concurrently, one goroutine (and one forked virtual clock) per rail;
// small and EXPRESS blocks bypass striping and take the lowest-latency
// rail, so the express latency of a multi-rail channel equals its best
// single rail.
//
// Wire format. Every striped chunk is framed with a small rail header:
//
//	seq   uint32  per-connection striped-operation sequence number
//	off   uint32  chunk offset within the logical block (or group)
//	len   uint32  chunk payload length
//	flags uint8   bit 0: last chunk of the operation
//
// The header is redundant — pack/unpack symmetry (§2.2) lets both sides
// compute the full chunk layout from the block sizes alone — so the
// receiver uses it only as a cross-check: a mismatch (a scrambled header
// on a faulty fabric) is counted in the session registry
// ("rail/hdr-mismatch") and the payload is placed at the layout's offset
// anyway. Placement by layout rather than by header keeps a corrupted
// header from tearing the stream or killing a forwarding daemon;
// end-to-end integrity on lossy fabrics stays where it already lives, in
// the fwd layer's reliable mode. Express blocks carry no header at all.
//
// Ordering. Chunk k of an operation goes to rail k mod nrails, and every
// striped operation joins all rails before returning, so each rail's
// sub-connection sees a deterministic FIFO of frames that the receiver
// replays from the same layout computation. Core announces the message on
// the top-level connection; the sub-connections carry no message of their own.

const (
	// railHdrSize is the striped-chunk header length.
	railHdrSize = 13
	// railFlagLast marks the last chunk of one striped operation.
	railFlagLast = 1 << 0
	// DefaultStripeSize is the chunk granularity (and the express-bypass
	// cutoff) when ChannelSpec.StripeSize is zero.
	DefaultStripeSize = 64 << 10
	// maxRails bounds a channel's adapter fan-out.
	maxRails = 16
)

// putRailHdr encodes a chunk header into b[:railHdrSize].
func putRailHdr(b []byte, seq uint32, off, n int, last bool) {
	binary.BigEndian.PutUint32(b[0:], seq)
	binary.BigEndian.PutUint32(b[4:], uint32(off))
	binary.BigEndian.PutUint32(b[8:], uint32(n))
	b[12] = 0
	if last {
		b[12] = railFlagLast
	}
}

// parseRailHdr decodes a chunk header.
func parseRailHdr(b []byte) (seq uint32, off, n int, last bool) {
	seq = binary.BigEndian.Uint32(b[0:])
	off = int(binary.BigEndian.Uint32(b[4:]))
	n = int(binary.BigEndian.Uint32(b[8:]))
	last = b[12]&railFlagLast != 0
	return
}

// railSub is one rail: a protocol module instance bound to one adapter.
type railSub struct {
	driver string
	pmm    PMM
}

// railPMM drives a multi-rail channel. It exposes two transmission
// modules: rail-stripe (chunked fan-out over every rail) and rail-express
// (whole block on the lowest-latency rail), and owns the per-rail
// sub-connection bootstrap.
type railPMM struct {
	rails  []railSub
	stripe int

	stripeTM  TM
	expressTM TM

	hdrMismatch *metrics.Counter // rail/hdr-mismatch
}

func (p *railPMM) bindMetrics(reg *metrics.Registry) {
	p.hdrMismatch = reg.Counter("rail/hdr-mismatch")
	for _, r := range p.rails {
		if b, ok := r.pmm.(metricsBinder); ok {
			b.bindMetrics(reg)
		}
	}
}

// pinned hands each registered-memory rail its own connections, so an
// adapter a rail shares with plain channels is held to the pins of both.
func (p *railPMM) pinned(conns []*ConnState, add func(string, int, int)) {
	for i, r := range p.rails {
		sub, ok := r.pmm.(pinner)
		if !ok {
			continue
		}
		subs := make([]*ConnState, len(conns))
		for j, cs := range conns {
			subs[j] = cs.Priv.(*railConn).subs[i]
		}
		sub.pinned(subs, add)
	}
}

// newRailPMM instantiates the rails of a channel on one node. Each rail
// gets its own channel id (ids[i]) so per-channel protocol resources
// (ports, tags, segment ids, VI discriminators) never collide.
func newRailPMM(node *simnet.Node, rails []RailSpec, firstID, stripe int) (PMM, error) {
	p := &railPMM{stripe: stripe}
	for i, r := range rails {
		sub, err := newPMM(r.Driver, node, r.Adapter, firstID+i)
		if err != nil {
			return nil, fmt.Errorf("rail %d (%s[%d]): %w", i, r.Driver, r.Adapter, err)
		}
		p.rails = append(p.rails, railSub{driver: r.Driver, pmm: sub})
	}
	p.stripeTM = NewDynamicTM(&railStripe{p})
	p.expressTM = NewDynamicTM(&railExpress{p})
	return p, nil
}

func (p *railPMM) Name() string {
	names := make([]string, len(p.rails))
	for i, r := range p.rails {
		names[i] = r.pmm.Name()
	}
	return "rails(" + strings.Join(names, "+") + ")"
}

// Select routes EXPRESS blocks and blocks at or under the stripe size to
// the express TM (the express-bypass rule); everything larger is striped.
func (p *railPMM) Select(n int, sm SendMode, rm RecvMode) TM {
	if rm == ReceiveExpress || n <= p.stripe {
		return p.expressTM
	}
	return p.stripeTM
}

func (p *railPMM) TMs() []TM { return []TM{p.stripeTM, p.expressTM} }

// expressRail picks the lowest-latency rail for an n-byte block. Both
// sides compute it from the (symmetric) block length and the shared link
// models, so no coordination is needed; ties break to the lowest index.
func (p *railPMM) expressRail(n int) int {
	best, bestT := 0, linkOf(p.rails[0].pmm, n).Time(n)
	for i := 1; i < len(p.rails); i++ {
		if t := linkOf(p.rails[i].pmm, n).Time(n); t < bestT {
			best, bestT = i, t
		}
	}
	return best
}

// railConn is the top-level connection's Priv: one sub-connection per
// rail plus the striped-operation sequence numbers. sendSeq is guarded by
// the send lease, recvSeq by the receive lease; the subs slice is
// immutable after Connect.
//
// sendFrames and recvFrames hold one chunk frame per rail, made on the
// rail's first chunk at full stripe size. The direction's lease covers the
// striped operation and each rail's goroutine touches only its own entry. A
// send frame is the rail's again when the sub-TM's SendBuffer returns (the
// mover has copied it off the host), a receive frame once scattered.
type railConn struct {
	subs       []*ConnState
	sendSeq    uint32
	recvSeq    uint32
	sendFrames [][]byte
	recvFrames [][]byte
}

// railFrame returns rail ri's frame sized for an n-byte chunk.
func (p *railPMM) railFrame(frames [][]byte, ri, n int) []byte {
	if frames[ri] == nil {
		frames[ri] = make([]byte, railHdrSize+p.stripe)
	}
	return frames[ri][:railHdrSize+n]
}

func (p *railPMM) PreConnect(cs *ConnState) error {
	rc := &railConn{
		subs:       make([]*ConnState, len(p.rails)),
		sendFrames: make([][]byte, len(p.rails)),
		recvFrames: make([][]byte, len(p.rails)),
	}
	for i, r := range p.rails {
		sub := newConnState(cs.ch, r.pmm.TMs(), cs.local, cs.remote)
		if err := r.pmm.PreConnect(sub); err != nil {
			return fmt.Errorf("rail %d: %w", i, err)
		}
		rc.subs[i] = sub
	}
	cs.Priv = rc
	return nil
}

func (p *railPMM) Connect(cs *ConnState) error {
	rc := cs.Priv.(*railConn)
	for i, r := range p.rails {
		if err := r.pmm.Connect(rc.subs[i]); err != nil {
			return fmt.Errorf("rail %d: %w", i, err)
		}
	}
	return nil
}

// forkRails runs op once per rail, each on a virtual clock forked from a,
// and joins a to the latest rail's completion — concurrent wire time on
// distinct adapters genuinely overlaps, which is the whole point of
// striping. Errors are reported deterministically: the lowest-index
// failing rail wins. A single rail runs inline on the caller's clock.
func forkRails(a *vclock.Actor, nrails int, op func(ri int, ra *vclock.Actor) error) error {
	if nrails == 1 {
		return op(0, a)
	}
	errs := make([]error, nrails)
	ends := make([]vclock.Time, nrails)
	var wg sync.WaitGroup
	for i := 0; i < nrails; i++ {
		ra := vclock.NewActor(fmt.Sprintf("%s/r%d", a.Name(), i))
		ra.SetNow(a.Now())
		wg.Add(1)
		go func(i int, ra *vclock.Actor) {
			defer wg.Done()
			errs[i] = op(i, ra)
			ends[i] = ra.Now()
		}(i, ra)
	}
	wg.Wait()
	for _, e := range ends {
		a.Sync(e)
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// railSendFrame ships one framed buffer on a rail's sub-connection
// through the given sub-TM, splitting it into protocol static buffers
// when the sub-TM is a static one.
func railSendFrame(a *vclock.Actor, sub *ConnState, tm TM, frame []byte) error {
	if tm.StaticSize() <= 0 {
		return tm.SendBuffer(a, sub, frame)
	}
	for off := 0; off < len(frame); {
		buf, err := tm.ObtainStaticBuffer(a, sub)
		if err != nil {
			return err
		}
		n := copy(buf, frame[off:])
		if err := tm.SendBuffer(a, sub, buf[:n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// railRecvFrame mirrors railSendFrame: the piece layout is recomputed
// from the frame length and the sub-TM's static size, so both sides
// agree without any extra framing.
func railRecvFrame(a *vclock.Actor, sub *ConnState, tm TM, frame []byte) error {
	if tm.StaticSize() <= 0 {
		return tm.ReceiveBuffer(a, sub, frame)
	}
	for off := 0; off < len(frame); {
		buf, err := tm.ReceiveStaticBuffer(a, sub)
		if err != nil {
			return err
		}
		if len(buf) > len(frame)-off {
			return asymmetryError("rail static piece", len(frame)-off, len(buf))
		}
		off += copy(frame[off:], buf)
		if err := tm.ReleaseStaticBuffer(a, sub, buf); err != nil {
			return err
		}
	}
	return nil
}

// railSpan attributes one per-rail transfer to the observer: a span on
// the rail actor's track (rail imbalance shows as ragged track ends in
// the timeline) and a latency observation keyed by rail and sub-TM.
func (p *railPMM) railSpan(cs *ConnState, a *vclock.Actor, t0 vclock.Time, ri int, tx bool, sub string) {
	ch := cs.ch
	if ch == nil || ch.obs == nil {
		return
	}
	dir, lbl := "rx", "v:"
	if tx {
		dir, lbl = "tx", "x:"
	}
	ch.obs.reg.Histogram(fmt.Sprintf("rail%d-%s/%s", ri, metrics.Clean(sub), dir)).Observe(a.Now() - t0)
	ch.span(a, t0, fmt.Sprintf("%srail%d %s", lbl, ri, sub))
}

// gatherInto fills dst with the bytes at logical offset off of the
// concatenated group.
func gatherInto(dst []byte, group [][]byte, off int) {
	for _, g := range group {
		if off >= len(g) {
			off -= len(g)
			continue
		}
		n := copy(dst, g[off:])
		dst = dst[n:]
		off = 0
		if len(dst) == 0 {
			return
		}
	}
}

// scatterFrom writes src to logical offset off of the concatenated dsts.
func scatterFrom(src []byte, dsts [][]byte, off int) {
	for _, d := range dsts {
		if off >= len(d) {
			off -= len(d)
			continue
		}
		n := copy(d[off:], src)
		src = src[n:]
		off = 0
		if len(src) == 0 {
			return
		}
	}
}

// railStripe is the striping transmission module: its own group bodies
// select the aggregating BMM and fan each group out across the rails.
type railStripe struct{ p *railPMM }

func (t *railStripe) Name() string { return "rail-stripe" }

// Link aggregates the rails' cost models: a striped block sees the summed
// bandwidth of all rails at the per-rail share, under the slowest rail's
// fixed cost. One rail is that rail.
func (t *railStripe) Link(n int) model.Link {
	p := t.p
	if len(p.rails) == 1 {
		return linkOf(p.rails[0].pmm, n)
	}
	share := (n + len(p.rails) - 1) / len(p.rails)
	agg := model.Link{Name: p.Name(), Kind: model.DMA}
	for _, r := range p.rails {
		l := linkOf(r.pmm, share)
		if l.Fixed > agg.Fixed {
			agg.Fixed = l.Fixed
		}
		agg.Bandwidth += l.Bandwidth
		if l.Kind == model.PIO {
			// A PIO rail keeps the aggregate in the PCI arbiter's
			// losing class — conservative for the forwarding model.
			agg.Kind = model.PIO
		}
	}
	return agg
}

func (t *railStripe) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	return t.SendBufferGroup(a, cs, [][]byte{data})
}

func (t *railStripe) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	return t.ReceiveSubBufferGroup(a, cs, [][]byte{dst})
}

// SendBufferGroup stripes the logical concatenation of group across the
// rails: chunk k covers bytes [k·stripe, min((k+1)·stripe, total)) and
// rides rail k mod nrails; every rail's chunks go out in order on a forked
// clock, and the operation returns at the latest rail's completion.
func (t *railStripe) SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error {
	p := t.p
	total := 0
	for _, g := range group {
		total += len(g)
	}
	if total == 0 {
		return nil
	}
	rc := cs.Priv.(*railConn)
	seq := rc.sendSeq
	rc.sendSeq++
	nc := (total + p.stripe - 1) / p.stripe
	nr := min(len(p.rails), nc)
	return forkRails(a, nr, func(ri int, ra *vclock.Actor) error {
		for k := ri; k < nc; k += nr {
			off := k * p.stripe
			n := min(p.stripe, total-off)
			frame := p.railFrame(rc.sendFrames, ri, n)
			putRailHdr(frame, seq, off, n, k == nc-1)
			gatherInto(frame[railHdrSize:], group, off)
			tm := p.rails[ri].pmm.Select(len(frame), SendCheaper, ReceiveCheaper)
			t0 := ra.Now()
			if err := railSendFrame(ra, rc.subs[ri], tm, frame); err != nil {
				return err
			}
			p.railSpan(cs, ra, t0, ri, true, tm.Name())
		}
		return nil
	})
}

// ReceiveSubBufferGroup reassembles a striped operation: the chunk layout
// is recomputed from the (symmetric) total length, each rail's frames are
// drained in order on a forked clock, and payloads land at their layout
// offsets. Headers are verified, not trusted — see the file comment.
func (t *railStripe) ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error {
	p := t.p
	total := 0
	for _, d := range dsts {
		total += len(d)
	}
	if total == 0 {
		return nil
	}
	rc := cs.Priv.(*railConn)
	seq := rc.recvSeq
	rc.recvSeq++
	nc := (total + p.stripe - 1) / p.stripe
	nr := min(len(p.rails), nc)
	return forkRails(a, nr, func(ri int, ra *vclock.Actor) error {
		for k := ri; k < nc; k += nr {
			off := k * p.stripe
			n := min(p.stripe, total-off)
			frame := p.railFrame(rc.recvFrames, ri, n)
			tm := p.rails[ri].pmm.Select(len(frame), SendCheaper, ReceiveCheaper)
			t0 := ra.Now()
			if err := railRecvFrame(ra, rc.subs[ri], tm, frame); err != nil {
				return err
			}
			p.railSpan(cs, ra, t0, ri, false, tm.Name())
			hseq, hoff, hn, hlast := parseRailHdr(frame)
			if hseq != seq || hoff != off || hn != n || hlast != (k == nc-1) {
				p.hdrMismatch.Add(1)
			}
			scatterFrom(frame[railHdrSize:], dsts, off)
		}
		return nil
	})
}

// railExpress carries small and EXPRESS blocks whole on the
// lowest-latency rail, headerless: a multi-rail channel's express
// latency is exactly its best single rail's.
type railExpress struct{ p *railPMM }

func (t *railExpress) Name() string { return "rail-express" }

func (t *railExpress) Link(n int) model.Link {
	return linkOf(t.p.rails[t.p.expressRail(n)].pmm, n)
}

func (t *railExpress) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	if len(data) == 0 {
		// A zero-length block never touches a wire; the receive side
		// skips symmetrically (same length, same rule).
		return nil
	}
	rc := cs.Priv.(*railConn)
	ri := t.p.expressRail(len(data))
	tm := t.p.rails[ri].pmm.Select(len(data), SendCheaper, ReceiveCheaper)
	t0 := a.Now()
	if err := railSendFrame(a, rc.subs[ri], tm, data); err != nil {
		return err
	}
	t.p.railSpan(cs, a, t0, ri, true, tm.Name())
	return nil
}

func (t *railExpress) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	rc := cs.Priv.(*railConn)
	ri := t.p.expressRail(len(dst))
	tm := t.p.rails[ri].pmm.Select(len(dst), SendCheaper, ReceiveCheaper)
	t0 := a.Now()
	if err := railRecvFrame(a, rc.subs[ri], tm, dst); err != nil {
		return err
	}
	t.p.railSpan(cs, a, t0, ri, false, tm.Name())
	return nil
}
