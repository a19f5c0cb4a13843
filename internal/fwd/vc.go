package fwd

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"madeleine2/internal/core"
	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
)

// Spec describes a virtual channel: "instead of a single channel using a
// given network protocol, one has to specify a virtual channel that
// includes a sequence of real channels" (§6). Adjacent segments must share
// at least one node — the gateway.
type Spec struct {
	// Name prefixes the real channels created for the virtual channel
	// (the inter-cluster traffic gets its own closed communication world).
	Name string
	// MTU is the route-wide packet size: "the common, optimal packet size
	// to be used along the route", chosen "so that each network is able to
	// send them without having to fragment them further" (§6.1). Zero
	// selects model.DefaultMTU (16 kB, from the §6.2.1 analysis).
	MTU int
	// Segments are the real channels to create, in route order.
	Segments []core.ChannelSpec
	// BandwidthControl, when positive, throttles each gateway's incoming
	// flow to the given MB/s — the "sophisticated bandwidth control
	// mechanism ... to regulate the incoming communication flow on
	// gateways" the paper names as future work (§7). Implemented here as
	// an extension and measured by the ablation benches.
	BandwidthControl float64
	// ForceGatewayCopy disables the static-buffer hand-off optimization of
	// §6.1 and always pays an extra copy on gateways (ablation).
	ForceGatewayCopy bool
	// Reliable turns on the per-link ACK/NACK stop-and-wait protocol: a
	// companion control channel per segment, link sequence numbers, a
	// header checksum, MTU-padded fixed framing, bounded retransmit with
	// virtual-time backoff, and duplicate suppression. The paper assumes
	// reliable networks (§6.1); this mode keeps a virtual channel correct
	// on a fabric with a simnet.FaultPlan installed, at the price of one
	// acknowledgment round trip per packet per link.
	Reliable bool
	// MaxRetries bounds retransmissions per packet in reliable mode
	// (0 selects 8). Exhaustion is fatal for the handle: see VC.Err.
	MaxRetries int
}

// chunk is one packet payload delivered to a destination's stream.
type chunk struct {
	data    []byte
	stamp   vclock.Time
	first   bool
	last    bool   // flagLast: lets ReceiveBuffer drain a poisoned message to its end
	aborted bool   // flagAbort: the sender aborted the message, surfaced by ReceiveBuffer
	corrupt bool   // checksum mismatch: surfaced by ReceiveBuffer
	trace   uint64 // distributed trace ID from the packet header
	hop     uint32 // delivery hop: relays traversed + 1
}

// frame returns n bytes for a delivered packet, a padded reliable wire
// frame or a message's staged tail: an idle frame when the handle has one,
// else a new one of MTU capacity. Every frame is the same size and comes
// back to the handle, so the idle list holds at most the deepest burst the
// handle has seen, a stream that ran ahead of its reader included, and a
// steady stream makes none.
func (v *VC) frame(n int) []byte {
	var b []byte
	v.frameMu.Lock()
	if k := len(v.frames) - 1; k >= 0 {
		b, v.frames = v.frames[k], v.frames[:k]
	}
	v.frameMu.Unlock()
	if b != nil {
		return b[:n]
	}
	v.framesMade.Add(1)
	return make([]byte, n, v.mtu)
}

// freeFrame takes a frame back from its owner: the destination stream once
// ReceiveBuffer has consumed it, the reliable sender once the link has its
// verdict, the Generic TM's send state at its message's end. It keeps
// every frame of MTU capacity; anything else (nil, a caller's block) is
// not the handle's.
func (v *VC) freeFrame(b []byte) {
	if cap(b) != v.mtu {
		return
	}
	v.frameMu.Lock()
	v.frames = append(v.frames, b)
	v.frameMu.Unlock()
}

// hop is one routing-table entry: forward over segment seg to rank next.
type hop struct {
	seg  int
	next int
}

// VC is one rank's handle on a virtual channel. Its message interface is
// a core.Channel (Channel): the VC channel, whose protocol module is the
// Generic TM, which cuts messages into self-described MTU packets that
// gateway daemons forward between the real channels.
type VC struct {
	rank int
	mtu  int
	spec Spec
	rec  *trace.Recorder // the session observer's recorder, shared with every other layer

	ch    *core.Channel         // this rank's end of the VC channel
	chans map[int]*core.Channel // segment index -> this rank's real channel
	ctls  map[int]*core.Channel // reliable mode: segment index -> control channel
	next  map[int]hop           // destination rank -> next hop

	// streams is each origin's incoming stream, made with the VC
	// channel's connections and read-only once the daemons run.
	streams    map[int]*stream
	mu         sync.Mutex
	pipes      map[[2]int]*pipeline
	frameMu    sync.Mutex
	frames     [][]byte // idle MTU-sized frames: the deepest burst seen
	framesMade atomic.Int32

	rel *relState   // reliable mode only
	ctr relCounters // published as fwd/* by a registry collector

	// Distributed tracing: every message gets a cluster-wide trace ID of
	// traceBase (a hash of the channel name and rank, never zero in the
	// high half) plus a local sequence number. The ID rides the packet
	// header across gateways.
	traceBase uint64
	traceSeq  atomic.Uint64

	failMu  sync.Mutex
	failErr error

	closed    atomic.Bool // Close has begun
	closeOnce sync.Once
	daemons   sync.WaitGroup // receiver daemons and gateway pipelines
	segs      [][]int        // segment index -> member ranks, sorted (topology map)
}

// New collectively creates the virtual channel and returns the per-rank
// handles. It creates one real channel per segment, computes shortest
// routes across the segment graph, creates the VC channel over each
// rank's Generic TM, and starts the receiver daemons (and, on gateways,
// the forwarding pipelines).
func New(sess *core.Session, spec Spec) (map[int]*VC, error) {
	if len(spec.Segments) == 0 {
		return nil, fmt.Errorf("fwd: virtual channel %q has no segments", spec.Name)
	}
	if spec.MTU == 0 {
		spec.MTU = model.DefaultMTU
	}
	if spec.MTU < hdrSize || spec.MTU > maxMTU {
		return nil, fmt.Errorf("fwd: MTU %d out of range [%d, %d]", spec.MTU, hdrSize, maxMTU)
	}
	if spec.Reliable && spec.MaxRetries == 0 {
		spec.MaxRetries = 8
	}
	segChans := make([]map[int]*core.Channel, len(spec.Segments))
	segCtls := make([]map[int]*core.Channel, len(spec.Segments))
	segMembers := make([][]int, len(spec.Segments))
	for i, cs := range spec.Segments {
		cs.Name = fmt.Sprintf("%s#%d", spec.Name, i)
		chans, err := sess.NewChannel(cs)
		if err != nil {
			return nil, fmt.Errorf("fwd: segment %d: %w", i, err)
		}
		segChans[i] = chans
		for r := range chans {
			segMembers[i] = append(segMembers[i], r)
		}
		sort.Ints(segMembers[i])
		if spec.Reliable {
			// The acknowledgment path gets its own real channel per
			// segment so verdict frames never interleave with (or wait
			// behind) data packets.
			cc := spec.Segments[i]
			cc.Name = fmt.Sprintf("%s#%dc", spec.Name, i)
			ctls, err := sess.NewChannel(cc)
			if err != nil {
				return nil, fmt.Errorf("fwd: segment %d control: %w", i, err)
			}
			segCtls[i] = ctls
		}
	}
	routes, members, err := buildRoutes(segMembers)
	if err != nil {
		return nil, fmt.Errorf("fwd: %s: %w", spec.Name, err)
	}

	rec := sess.Observer().Recorder()
	vcs := make(map[int]*VC, len(members))
	pmms := make(map[int]core.PMM, len(members))
	for _, r := range members {
		v := &VC{
			rank:    r,
			mtu:     spec.MTU,
			spec:    spec,
			rec:     rec,
			chans:   make(map[int]*core.Channel),
			ctls:    make(map[int]*core.Channel),
			next:    routes[r],
			streams: make(map[int]*stream),
			pipes:   make(map[[2]int]*pipeline),
			segs:    segMembers,
		}
		if spec.Reliable {
			v.rel = newRelState()
		}
		hash := fnv.New32a()
		fmt.Fprintf(hash, "%s/%d", spec.Name, r)
		v.traceBase = uint64(hash.Sum32()|1) << 32 // nonzero high half
		for i, chans := range segChans {
			if ch, ok := chans[r]; ok {
				v.chans[i] = ch
				if spec.Reliable { // same members as the segment
					v.ctls[i] = segCtls[i][r]
				}
			}
		}
		sess.Metrics().RegisterCollector(v.ctr.collect)
		vcs[r] = v
		pmms[r] = genericPMM{v, []core.TM{genericTM{core.NewDynamicTM(generic{v}), v}}}
	}
	vchans, err := sess.NewChannelOver(spec.Name, pmms)
	if err != nil {
		return nil, fmt.Errorf("fwd: %w", err)
	}
	// Daemons start once their handle is whole: a gateway daemon may touch
	// its own pipelines immediately.
	for r, v := range vcs {
		v.ch = vchans[r]
		for segIdx, ch := range v.chans {
			v.daemons.Add(1)
			go func() { defer v.daemons.Done(); v.daemon(segIdx, ch) }()
		}
		for segIdx, ch := range v.ctls {
			v.daemons.Add(1)
			go func() { defer v.daemons.Done(); v.ctlDaemon(segIdx, ch) }()
		}
	}
	return vcs, nil
}

// maxMTU bounds packet sizes to something a gateway buffer can hold.
const maxMTU = 1 << 20

// buildRoutes computes per-node next hops over the segment graph.
func buildRoutes(segMembers [][]int) (map[int]map[int]hop, []int, error) {
	inSeg := make(map[int][]int) // rank -> segment indexes
	for i, ms := range segMembers {
		for _, r := range ms {
			inSeg[r] = append(inSeg[r], i)
		}
	}
	var members []int
	for r := range inSeg {
		members = append(members, r)
	}
	// pairSeg(a,b): the lowest-index segment containing both.
	pairSeg := func(a, b int) (int, bool) {
		for _, sa := range inSeg[a] {
			for _, sb := range inSeg[b] {
				if sa == sb {
					return sa, true
				}
			}
		}
		return 0, false
	}
	routes := make(map[int]map[int]hop)
	for _, r := range members {
		routes[r] = make(map[int]hop)
	}
	// BFS from each destination d: next[n] = n's neighbor toward d.
	for _, d := range members {
		dist := map[int]int{d: 0}
		queue := []int{d}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, seg := range inSeg[cur] {
				for _, nb := range segMembers[seg] {
					if _, seen := dist[nb]; seen || nb == cur {
						continue
					}
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
					s, ok := pairSeg(nb, cur)
					if !ok {
						return nil, nil, fmt.Errorf("inconsistent segment graph")
					}
					routes[nb][d] = hop{seg: s, next: cur}
				}
			}
		}
		for _, r := range members {
			if r == d {
				continue
			}
			if _, ok := routes[r][d]; !ok {
				return nil, nil, fmt.Errorf("no route from %d to %d: segments do not share gateways", r, d)
			}
		}
	}
	return routes, members, nil
}

// Rank reports the local process rank.
func (v *VC) Rank() int { return v.rank }

// Clusters exposes the virtual channel's topology: one member list per
// real-channel segment, in segment order. Gateways appear in every
// segment they bridge. Layers above (topology-aware collective schedules)
// read this as the world's cluster map.
func (v *VC) Clusters() [][]int {
	out := make([][]int, len(v.segs))
	for i, ms := range v.segs {
		out[i] = append([]int(nil), ms...)
	}
	return out
}

// Session returns the session the virtual channel was built on.
func (v *VC) Session() *core.Session { return v.ch.Session() }

// Channel returns this rank's end of the VC channel, the core channel
// whose messages the Generic TM carries: its name is the Spec's, its
// members every rank of the virtual channel.
func (v *VC) Channel() *core.Channel { return v.ch }

// Close shuts down this rank's VC channel, daemons, pipelines and
// receive streams; blocked and future BeginUnpacking calls fail once
// pending messages drain. Idempotent and safe to race (fail invokes it
// from daemons and senders). It returns once the rank's receiver daemons
// and gateway pipelines have. Every wake-up source — channels, pipeline queues, link
// leases and verdicts — closes before that join, so a thread blocked
// anywhere in the packet path exits instead of wedging Close.
func (v *VC) Close() {
	v.closeOnce.Do(func() {
		v.closed.Store(true)
		v.ch.Close()
		for _, ch := range v.chans {
			ch.Close()
		}
		for _, ch := range v.ctls {
			ch.Close()
		}
		v.mu.Lock()
		for _, p := range v.pipes {
			p.work.Close()
			p.free.Close()
		}
		v.mu.Unlock()
		if v.rel != nil {
			v.rel.closeAll()
		}
		v.daemons.Wait()
		for _, st := range v.streams {
			st.q.Close()
		}
	})
}

// BeginPacking begins a message toward remote on the VC channel.
func (v *VC) BeginPacking(a *vclock.Actor, remote int) (*core.Connection, error) {
	return v.ch.BeginPacking(a, remote)
}

// BeginUnpacking begins the next incoming message on the VC channel and
// takes its first packet, an empty express block: core announces a
// message at its sender's first send, so a handle whose stream died on
// the way fails here rather than at the first Unpack. After a fatal error
// (see Err) it reports that error instead of a bare ErrClosed.
func (v *VC) BeginUnpacking(a *vclock.Actor) (*core.Connection, error) {
	cn, err := v.ch.BeginUnpacking(a)
	if err != nil {
		return nil, v.errOr(err)
	}
	if err := cn.Unpack(nil, core.SendCheaper, core.ReceiveExpress); err != nil {
		return nil, err
	}
	return cn, nil
}

// genericTM is the Generic TM (§6.1), the VC channel's one TM: its mover,
// generic, wrapped by core.NewDynamicTM, plus where each message ends
// (EndMessage) and an eager BMM that extracts every block at its Unpack,
// so a packet that failed its checksum fails the Unpack that reads it.
// Its state is the connection's ConnState.Priv, a vcConn: the send half
// under the send lease, the receive half under the receive lease.
type genericTM struct {
	*core.DynamicTM
	v *VC
}

func (t genericTM) NewBMM(cs *core.ConnState) core.BMM {
	return unpackNow{core.NewEagerBMM(t, cs)}
}

// unpackNow takes every Unpack as receive_EXPRESS, as Table 1 allows.
type unpackNow struct{ core.BMM }

func (b unpackNow) Unpack(a *vclock.Actor, dst []byte, _ core.RecvMode) error {
	return b.BMM.Unpack(a, dst, core.ReceiveExpress)
}

type generic struct{ v *VC } // the Generic TM's mover

// vcConn is a VC connection's Generic TM state: the message being sent,
// from its first SendBuffer to its end (hb is on the wire once the real
// channel's EndPacking returns), and the remote rank's incoming stream.
type vcConn struct {
	open    bool
	buf     []byte // the staged tail: one frame of the VC
	hb      hdrBuf
	seq     uint32
	traceID uint64
	t0      vclock.Time

	in *stream
}

// stream is the per-origin incoming byte stream at a destination, shared
// with the receiver daemons, and the message being read from it: its
// trace context, learned from its first packet, and the time its reading
// began, for the unpack span.
type stream struct {
	q    *simnet.Queue[chunk]
	cur  chunk // the packet being read: cur.data[roff:] is still unread
	roff int

	open    bool
	traceID uint64
	hop     uint32
	t0      vclock.Time
}

func (g generic) Name() string { return "generic" }

// Link is zero: a packet costs what the real channels it crosses charge.
func (g generic) Link(int) model.Link { return model.Link{} }

// SendBuffer cuts the message's byte stream into packets at the MTU,
// whatever the buffer boundaries: a staged tail is topped up first, and a
// packet is cut only while strictly more than one MTU is pending, so the
// last packet, which EndMessage flags, is empty only for an empty message
// (the poisoned-message drain needs that marker). Full packets leave from
// data, the caller's again on return; only a tail of at most one MTU is
// staged. The message's first call draws its trace ID.
func (g generic) SendBuffer(a *vclock.Actor, cs *core.ConnState, data []byte) error {
	v, c := g.v, cs.Priv.(*vcConn)
	if !c.open {
		c.open, c.seq, c.t0 = true, 0, a.Now()
		c.traceID = v.traceBase | (v.traceSeq.Add(1) & 0xffffffff)
	}
	mtu, to := v.mtu, cs.Remote()
	if len(c.buf) > 0 {
		n := copy(c.buf[len(c.buf):mtu], data)
		c.buf, data = c.buf[:len(c.buf)+n], data[n:]
		if len(data) > 0 {
			if err := v.sendPacket(a, to, c, c.buf, 0); err != nil {
				return err
			}
			c.buf = c.buf[:0]
		}
	}
	for len(data) > mtu {
		if err := v.sendPacket(a, to, c, data[:mtu], 0); err != nil {
			return err
		}
		data = data[mtu:]
	}
	if len(data) > 0 {
		if c.buf == nil {
			c.buf = v.frame(mtu)
		}
		c.buf = append(c.buf[:0], data...)
	}
	return nil
}

// ReceiveBuffer fills dst from the origin's stream, syncing the actor to
// each packet's arrival. The message's first call takes its first packet
// even for an empty dst: BeginUnpacking's wait, and how an empty message
// is read. A packet that failed its checksum, or its sender's abort
// marker, fails the message when its bytes are read.
func (g generic) ReceiveBuffer(a *vclock.Actor, cs *core.ConnState, dst []byte) error {
	v, s := g.v, cs.Priv.(*vcConn).in
	if !s.open {
		s.t0 = a.Now()
		if err := v.take(a, s); err != nil {
			return err
		}
	}
	for len(dst) > 0 {
		if s.cur.corrupt || s.cur.aborted {
			return v.drain(a, s, cs.Remote())
		}
		if s.roff == len(s.cur.data) {
			if err := v.take(a, s); err != nil {
				return err
			}
			continue
		}
		n := copy(dst, s.cur.data[s.roff:])
		s.roff += n
		dst = dst[n:]
	}
	return nil
}

// take makes the stream's next packet the current one, giving the
// consumed one's frame back. A stream closed by a fatal error reports it.
func (v *VC) take(a *vclock.Actor, s *stream) error {
	v.freeFrame(s.cur.data)
	ck, ok := s.q.Pop()
	if s.cur, s.roff = ck, 0; !ok {
		return v.errOr(core.ErrClosed)
	}
	a.Sync(ck.stamp)
	if !s.open {
		s.open, s.traceID, s.hop = true, ck.trace, ck.hop
	}
	return nil
}

// drain reads the message through its last packet, syncing to each
// arrival and giving every frame back, so the stream waits for the next
// message, and reports what failed the message: a corrupt current packet,
// its sender's abort, or bytes left unread.
func (v *VC) drain(a *vclock.Actor, s *stream, origin int) error {
	corrupt, aborted, unread := s.cur.corrupt, s.cur.aborted, len(s.cur.data)-s.roff
	for !s.cur.last && v.take(a, s) == nil {
		aborted, unread = aborted || s.cur.aborted, unread+len(s.cur.data)
	}
	v.freeFrame(s.cur.data)
	s.cur, s.roff, s.open = chunk{}, 0, false
	switch {
	case corrupt:
		return fmt.Errorf("fwd: packet from %d failed its checksum", origin)
	case aborted:
		return fmt.Errorf("fwd: message from %d aborted by its sender", origin)
	case unread != 0:
		return fmt.Errorf("fwd: %d unconsumed bytes at message end (asymmetric unpack)", unread)
	}
	return nil
}

// EndMessage ends a message. A sent one ships its staged tail flagged
// last (header-only for an empty message) and records the sender's pack
// span, at hop 0 so merged exports sort it before every relay. Core
// announced the message at its first send, so one that aborts, or whose
// last packet fails, ends with a header-only packet flagged last and
// aborted: its reception fails instead of reading the next message's
// packets. A received one that ends anywhere but clean at its last packet
// drains and fails; otherwise it records the unpack span at the hop its
// packets arrived with.
func (t genericTM) EndMessage(a *vclock.Actor, cs *core.ConnState, sending, abort bool) error {
	v, c := t.v, cs.Priv.(*vcConn)
	if s := c.in; !sending {
		switch {
		case !s.open:
		case abort || !s.cur.last || s.cur.aborted || s.roff != len(s.cur.data):
			if err := v.drain(a, s, cs.Remote()); !abort {
				return err
			}
		default:
			s.open = false
			v.rec.RecordT(a.Name(), s.t0, a.Now(), "u:unpack", s.traceID, s.hop)
		}
		return nil
	}
	if !c.open {
		return nil
	}
	var err error
	if !abort {
		if err = v.sendPacket(a, cs.Remote(), c, c.buf, flagLast); err == nil {
			v.rec.RecordT(a.Name(), c.t0, a.Now(), "p:pack", c.traceID, 0)
		}
	}
	if abort || err != nil {
		// Best effort: the message has failed already, and if this packet
		// cannot leave either, nothing else from here reaches the receiver.
		_ = v.sendPacket(a, cs.Remote(), c, nil, flagLast|flagAbort)
	}
	v.freeFrame(c.buf)
	c.buf, c.open = nil, false
	return err
}

// sendPacket ships one packet of c's message toward to through the next
// hop. The sequence number moves only after the send is known good: a
// failed send must not claim a number it never put on the wire.
func (v *VC) sendPacket(a *vclock.Actor, to int, c *vcConn, payload []byte, flags uint32) error {
	h := header{
		Origin: v.rank, Dst: to, Seq: c.seq, Flags: flags,
		Len: len(payload), CRC: checksum(payload),
		Trace: c.traceID, // Hop starts at 0; gateways increment per relay
	}
	if c.seq == 0 {
		h.Flags |= flagFirst
	}
	hp := v.next[to]
	if err := v.sendPacketOn(hp.seg, a, hp.next, h, &c.hb, payload); err != nil {
		return err
	}
	c.seq++
	return nil
}

// genericPMM is a rank's protocol module on the VC channel: the Generic
// TM for every block. PreConnect gives each connection the stream its
// origin's packets are delivered into.
type genericPMM struct {
	v   *VC
	tms []core.TM
}

func (p genericPMM) Name() string                                     { return "generic" }
func (p genericPMM) Select(int, core.SendMode, core.RecvMode) core.TM { return p.tms[0] }
func (p genericPMM) TMs() []core.TM                                   { return p.tms }
func (p genericPMM) Connect(*core.ConnState) error                    { return nil }

func (p genericPMM) PreConnect(cs *core.ConnState) error {
	in := &stream{q: simnet.NewQueue[chunk]()}
	p.v.streams[cs.Remote()] = in
	cs.Priv = &vcConn{in: in}
	return nil
}

// sendPacketOn transmits one Generic-TM packet toward next on a segment,
// through the reliability protocol when the channel runs in reliable mode.
// hb is the caller's block for the encoded header.
func (v *VC) sendPacketOn(seg int, a *vclock.Actor, next int, h header, hb *hdrBuf, payload []byte) error {
	if v.chans[seg] == nil {
		return fmt.Errorf("fwd: no local channel toward %d", next)
	}
	if v.spec.Reliable {
		return v.sendReliable(seg, a, next, h, hb, payload)
	}
	return rawSend(v.chans[seg], a, next, h.encode(hb), payload)
}

// rawSend transmits one packet as a two-block message on a real channel:
// the self-description header travels express (the gateway must read it
// before the payload), the payload cheaper. A header-only packet (an empty
// message's) omits the payload block entirely.
func rawSend(ch *core.Channel, a *vclock.Actor, next int, hb, payload []byte) error {
	return ch.Send(a, next, func(conn *core.Connection) error {
		if err := conn.Pack(hb, core.SendCheaper, core.ReceiveExpress); err != nil || len(payload) == 0 {
			return err
		}
		return conn.Pack(payload, core.SendCheaper, core.ReceiveCheaper)
	})
}
