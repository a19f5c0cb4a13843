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
	last    bool   // flagLast: lets Unpack drain a poisoned message to its end
	corrupt bool   // checksum mismatch: surfaced by Unpack
	trace   uint64 // distributed trace ID from the packet header
	hop     uint32 // delivery hop: relays traversed + 1
}

// stream is the per-origin incoming byte stream at a destination.
type stream struct {
	q       *simnet.Queue[chunk]
	residue []byte
	roff    int
}

// frameFreeMax bounds a handle's idle frames: the few packets a stream
// runs ahead of its consumer on a bulk transfer, and a gateway's padded
// wire frame besides.
const frameFreeMax = 4 * pipelineBuffers

// frame returns n bytes for a delivered packet, a padded reliable wire
// frame or a message's staged tail, recycled when the handle has an idle
// one. A handle makes at most frameFreeMax MTU-sized frames in its life,
// the ones that circulate; a stream running deeper than that gets the rest
// at their own size, from the collector, so a slow consumer of small
// packets never pins MTU blocks.
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
	if v.framesMade.Add(1) <= frameFreeMax {
		return make([]byte, n, v.mtu)
	}
	return make([]byte, n)
}

// freeFrame takes a frame back from its owner: the destination stream once
// Unpack has consumed it, the reliable sender once the link has its verdict,
// the packing connection at EndPacking.
func (v *VC) freeFrame(b []byte) {
	if cap(b) != v.mtu {
		return
	}
	v.frameMu.Lock()
	if len(v.frames) < frameFreeMax {
		v.frames = append(v.frames, b)
	}
	v.frameMu.Unlock()
}

// hop is one routing-table entry: forward over segment seg to rank next.
type hop struct {
	seg  int
	next int
}

// VC is one rank's handle on a virtual channel. Its packing interface
// mirrors the Madeleine channel interface; underneath, the Generic TM
// fragments messages into self-described MTU packets that gateway daemons
// forward between the real channels.
type VC struct {
	name string
	rank int
	mtu  int
	spec Spec
	sess *core.Session
	rec  *trace.Recorder // the session observer's recorder, shared with every other layer

	chans map[int]*core.Channel // segment index -> this rank's real channel
	ctls  map[int]*core.Channel // reliable mode: segment index -> control channel
	next  map[int]hop           // destination rank -> next hop

	msgStart   *simnet.Queue[int]
	mu         sync.Mutex
	streams    map[int]*stream
	pipes      map[[2]int]*pipeline
	frameMu    sync.Mutex
	frames     [][]byte // idle MTU-sized frames, at most frameFreeMax
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
	members   []int
	segs      [][]int // segment index -> member ranks, sorted (topology map)
}

// New collectively creates the virtual channel and returns the per-rank
// handles. It creates one real channel per segment, computes shortest
// routes across the segment graph, and starts the receiver daemons (and,
// on gateways, the forwarding pipelines).
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
	for _, r := range members {
		v := &VC{
			name:     spec.Name,
			rank:     r,
			mtu:      spec.MTU,
			spec:     spec,
			sess:     sess,
			rec:      rec,
			chans:    make(map[int]*core.Channel),
			ctls:     make(map[int]*core.Channel),
			next:     routes[r],
			msgStart: simnet.NewQueue[int](),
			streams:  make(map[int]*stream),
			pipes:    make(map[[2]int]*pipeline),
			members:  members,
			segs:     segMembers,
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
			}
			if spec.Reliable {
				if cc, ok := segCtls[i][r]; ok {
					v.ctls[i] = cc
				}
			}
		}
		sess.Metrics().RegisterCollector(v.ctr.collect)
		vcs[r] = v
	}
	// Daemons start after every handle exists: a gateway daemon may touch
	// its own pipelines immediately.
	for _, v := range vcs {
		for segIdx, ch := range v.chans {
			v.daemons.Add(1)
			go func(segIdx int, ch *core.Channel) {
				defer v.daemons.Done()
				v.daemon(segIdx, ch)
			}(segIdx, ch)
		}
		for segIdx, ch := range v.ctls {
			v.daemons.Add(1)
			go func(segIdx int, ch *core.Channel) {
				defer v.daemons.Done()
				v.ctlDaemon(segIdx, ch)
			}(segIdx, ch)
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

// Name reports the virtual channel's name; Rank the local rank.
func (v *VC) Name() string { return v.name }

// Rank reports the local process rank.
func (v *VC) Rank() int { return v.rank }

// Members lists every rank reachable on the virtual channel.
func (v *VC) Members() []int { return append([]int(nil), v.members...) }

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

// MTU reports the route-wide packet size.
func (v *VC) MTU() int { return v.mtu }

// Session returns the session the virtual channel was built on.
func (v *VC) Session() *core.Session { return v.sess }

// Close shuts down this rank's daemons, pipelines and receive queues;
// blocked and future BeginUnpacking calls fail once pending messages
// drain. Idempotent and safe to race (fail invokes it from daemons and
// senders). It returns once the rank's receiver daemons and gateway
// pipelines have. Every wake-up source — channels, pipeline queues, link
// leases and verdicts — closes before that join, so a thread blocked
// anywhere in the packet path exits instead of wedging Close.
func (v *VC) Close() {
	v.closeOnce.Do(func() {
		v.closed.Store(true)
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
		v.mu.Lock()
		defer v.mu.Unlock()
		v.msgStart.Close()
		for _, st := range v.streams {
			st.q.Close()
		}
	})
}

// stream returns (creating) the per-origin incoming stream.
func (v *VC) stream(origin int) *stream {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := v.streams[origin]
	if s == nil {
		s = &stream{q: simnet.NewQueue[chunk]()}
		v.streams[origin] = s
	}
	return s
}

// VConn is one in-construction or in-extraction virtual-channel message.
type VConn struct {
	v       *VC
	actor   *vclock.Actor
	remote  int
	sending bool
	open    bool

	// trace context: the message's trace ID (assigned at BeginPacking,
	// learned from the first chunk when receiving), the hop the context
	// was seen at, and the conversation's start time for the pack/unpack
	// span.
	traceID uint64
	hop     uint32
	t0      vclock.Time

	// send state
	buf  []byte // the staged tail: one frame of the VC, from the first staged byte to EndPacking
	hb   hdrBuf
	seq  uint32
	sent bool
}

// Remote reports the peer rank (the final destination or the origin).
func (c *VConn) Remote() int { return c.remote }

// Actor exposes the thread-of-control clock driving the message.
func (c *VConn) Actor() *vclock.Actor { return c.actor }

// BeginPacking initiates a message toward remote across the virtual
// channel. Note the Generic TM reads block contents at Pack time
// (send_LATER degrades to send_SAFER, documented deviation): packets must be
// self-contained before they reach the first gateway.
func (v *VC) BeginPacking(a *vclock.Actor, remote int) (*VConn, error) {
	if remote == v.rank {
		return nil, fmt.Errorf("fwd: cannot send to self on %s", v.name)
	}
	if _, ok := v.next[remote]; !ok {
		return nil, fmt.Errorf("fwd: no route from %d to %d on %s", v.rank, remote, v.name)
	}
	return &VConn{
		v: v, actor: a, remote: remote, sending: true, open: true,
		traceID: v.traceBase | (v.traceSeq.Add(1) & 0xffffffff),
		t0:      a.Now(),
	}, nil
}

// Pack appends a block to the message. Blocks are fragmented at the MTU;
// a receive_EXPRESS block flushes the pending fragment so the receiver's
// matching Unpack completes without waiting for EndPacking. Full fragments
// leave straight from data, which is the caller's again on return (every
// send has completed by then); only a tail of at most one MTU is staged.
func (c *VConn) Pack(data []byte, sm core.SendMode, rm core.RecvMode) error {
	if !c.open || !c.sending {
		return core.ErrBadState
	}
	mtu := c.v.mtu
	// Fragment strictly above the MTU: a full final fragment stays staged
	// for EndPacking, so every message's last packet carries flagLast even
	// when the length is an exact MTU multiple — the poisoned-message drain
	// in Unpack depends on that boundary marker. Packets are cut at the
	// offsets of the message's byte stream, whatever the block boundaries:
	// a staged tail is topped up to one MTU before anything else leaves.
	if len(c.buf) > 0 {
		n := copy(c.buf[len(c.buf):mtu], data)
		c.buf, data = c.buf[:len(c.buf)+n], data[n:]
		if len(data) > 0 {
			if err := c.sendPacket(c.buf, false); err != nil {
				return err
			}
			c.buf = c.buf[:0]
		}
	}
	for len(data) > mtu {
		if err := c.sendPacket(data[:mtu], false); err != nil {
			return err
		}
		data = data[mtu:]
	}
	if len(data) > 0 {
		if c.buf == nil {
			c.buf = c.v.frame(mtu)
		}
		c.buf = append(c.buf[:0], data...)
	}
	if rm == core.ReceiveExpress && len(c.buf) > 0 {
		if err := c.sendPacket(c.buf, false); err != nil {
			return err
		}
		c.buf = c.buf[:0]
	}
	return nil
}

// EndPacking flushes the remaining fragment (flagged last) and gives the
// staged tail's frame back to the handle.
func (c *VConn) EndPacking() error {
	if !c.open || !c.sending {
		return core.ErrBadState
	}
	c.open = false
	defer func() { c.v.freeFrame(c.buf); c.buf = nil }()
	if len(c.buf) > 0 {
		if err := c.sendPacket(c.buf, true); err != nil {
			return err
		}
	} else if c.sent {
		// An express flush already shipped the final data packet without
		// flagLast (it could not know the message was ending): close the
		// message with a header-only terminator so the receiver always
		// sees the boundary.
		if err := c.sendPacket(nil, true); err != nil {
			return err
		}
	}
	if !c.sent {
		return core.ErrEmptyMessage
	}
	// The sender's end of the distributed trace: one pack span covering
	// the whole conversation, tagged hop 0 so merged exports sort it
	// before every relay and the final unpack.
	c.v.rec.RecordT(c.actor.Name(), c.t0, c.actor.Now(), "p:pack", c.traceID, 0)
	return nil
}

// sendPacket ships one self-described packet toward the next hop. The
// connection's progress state moves only after the send is known good: a
// failed send must not claim a sequence number it never put on the wire.
func (c *VConn) sendPacket(payload []byte, last bool) error {
	h := header{
		Origin: c.v.rank, Dst: c.remote, Seq: c.seq,
		Len: len(payload), CRC: checksum(payload),
		Trace: c.traceID, // Hop starts at 0; gateways increment per relay
	}
	if c.seq == 0 {
		h.Flags |= flagFirst
	}
	if last {
		h.Flags |= flagLast
	}
	hp := c.v.next[c.remote]
	if err := c.v.sendPacketOn(hp.seg, c.actor, hp.next, h, &c.hb, payload); err != nil {
		return err
	}
	c.seq++
	c.sent = true
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
// before the payload), the payload cheaper. A header-only packet (an
// end-of-message terminator) omits the payload block entirely.
func rawSend(ch *core.Channel, a *vclock.Actor, next int, hb, payload []byte) error {
	return ch.Send(a, next, func(conn *core.Connection) error {
		if err := conn.Pack(hb, core.SendCheaper, core.ReceiveExpress); err != nil || len(payload) == 0 {
			return err
		}
		return conn.Pack(payload, core.SendCheaper, core.ReceiveCheaper)
	})
}

// BeginUnpacking blocks for the first packet of the next incoming message
// and returns its connection. After a fatal error (see Err) it reports
// that error instead of a bare ErrClosed.
func (v *VC) BeginUnpacking(a *vclock.Actor) (*VConn, error) {
	origin, ok := v.msgStart.Pop()
	if !ok {
		return nil, v.errOr(core.ErrClosed)
	}
	return &VConn{v: v, actor: a, remote: origin, sending: false, open: true, t0: a.Now()}, nil
}

// Unpack extracts the next len(dst) bytes of the message. A checksum
// failure poisons the whole message: the stream drains through the
// message's last chunk so the next message starts on a clean boundary,
// and the connection closes (further Unpack/EndUnpacking report
// ErrBadState, not phantom asymmetry).
func (c *VConn) Unpack(dst []byte, sm core.SendMode, rm core.RecvMode) error {
	if !c.open || c.sending {
		return core.ErrBadState
	}
	st := c.v.stream(c.remote)
	for len(dst) > 0 {
		if st.roff == len(st.residue) {
			c.v.freeFrame(st.residue)
			st.residue, st.roff = nil, 0
			ck, ok := st.q.Pop()
			if !ok {
				return c.v.errOr(core.ErrClosed)
			}
			c.actor.Sync(ck.stamp)
			if c.traceID == 0 {
				// The message's trace context, as carried by its packets.
				c.traceID, c.hop = ck.trace, ck.hop
			}
			if ck.corrupt {
				for !ck.last {
					if ck, ok = st.q.Pop(); !ok {
						break
					}
					c.actor.Sync(ck.stamp)
				}
				st.residue, st.roff = nil, 0
				c.open = false
				return fmt.Errorf("fwd: packet from %d failed its checksum", c.remote)
			}
			st.residue, st.roff = ck.data, 0
		}
		n := copy(dst, st.residue[st.roff:])
		st.roff += n
		dst = dst[n:]
	}
	return nil
}

// EndUnpacking finalizes the reception; pack/unpack asymmetry leaves
// residue and is reported.
func (c *VConn) EndUnpacking() error {
	if !c.open || c.sending {
		return core.ErrBadState
	}
	c.open = false
	st := c.v.stream(c.remote)
	if st.roff != len(st.residue) {
		return fmt.Errorf("fwd: %d unconsumed bytes at message end (asymmetric unpack)", len(st.residue)-st.roff)
	}
	// The receiver's end of the distributed trace, tagged with the hop
	// count the packets arrived carrying so it sorts after every relay.
	c.v.rec.RecordT(c.actor.Name(), c.t0, c.actor.Now(), "u:unpack", c.traceID, c.hop)
	return nil
}
