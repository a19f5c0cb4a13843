package main

import (
	"fmt"
	"sync"
	"time"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// fwd_bulk: large single-block messages streamed across the gateway of the
// paper's §6.2 testbed (SCI {0,1,2} + Myrinet {2,3,4}, gateway 2), first
// 0→4 then 4→0, best-effort, 8 KiB MTU. One operation is one delivered
// message. The Generic TM's fragmentation, the gateway's dual-buffer
// pipeline and the destination's reassembly do nearly all the work.

const (
	fwdMsgBase = 256 << 10
	fwdJitter  = -1024 // sizes stay within the last of the 32 packets
	fwdMTU     = 8 << 10
)

// clusterWorld builds an SCI cluster and a Myrinet cluster sharing their
// gateway node, plus Fast Ethernet everywhere (the acknowledgment path).
func clusterWorld(nodes int, sci, myri []int) *simnet.World {
	w := simnet.NewWorld(nodes)
	for _, r := range sci {
		w.Node(r).AddAdapter(sisci.Network)
	}
	for _, r := range myri {
		w.Node(r).AddAdapter(bip.Network)
	}
	for r := 0; r < nodes; r++ {
		w.Node(r).AddAdapter(tcpnet.Network)
	}
	return w
}

// fwdCmd tells a sender goroutine to stream n messages starting at virtual
// time at.
type fwdCmd struct {
	n    int
	at   vclock.Time
	base uint32
}

// fwdEnd is one direction's endpoint pair: a persistent sender goroutine
// on src and the initiator receiving on dst.
type fwdEnd struct {
	src, dst int
	vcSrc    *fwd.VC
	vcDst    *fwd.VC
	sizes    []int
	payload  []byte // sender's buffer
	want     []byte // the same pattern, for the receiver to compare with
	recv     []byte
	sender   *vclock.Actor
	receiver *vclock.Actor
	cmds     chan fwdCmd
	done     chan error
	ssp      *spanBuf
}

type fwdBulk struct {
	p    params
	sess *core.Session
	vcs  map[int]*fwd.VC
	ends [2]*fwdEnd
	sp   *spanBuf
	wg   sync.WaitGroup
	flip corrupter

	clock vclock.Time // virtual makespan accumulated over all halves
	opSeq uint32
}

func newFwdBulk(p params) scenario { return &fwdBulk{p: p, flip: corrupter{at: p.cfg.flipOp}} }

func (s *fwdBulk) session() *core.Session { return s.sess }
func (s *fwdBulk) virt() vclock.Time      { return s.clock }

func (s *fwdBulk) setup(ph *phases) error {
	t0 := time.Now()
	s.sess = core.NewSession(clusterWorld(5, []int{0, 1, 2}, []int{2, 3, 4}))
	s.sess.SetObserver(s.p.obs)
	ph.world = time.Since(t0)

	t1 := time.Now()
	vcs, err := fwd.New(s.sess, fwd.Spec{
		Name: "fwd-bulk",
		MTU:  fwdMTU,
		Segments: []core.ChannelSpec{
			{Driver: "sisci", Nodes: []int{0, 1, 2}},
			{Driver: "bip", Nodes: []int{2, 3, 4}},
		},
	})
	if err != nil {
		return err
	}
	s.vcs = vcs
	s.sp = s.p.tr.buf("initiator", s.p.tracedUnits*2*4+64)
	for i, dir := range [][2]int{{0, 4}, {4, 0}} {
		e := &fwdEnd{
			src: dir[0], dst: dir[1], vcSrc: vcs[dir[0]], vcDst: vcs[dir[1]],
			sizes:    sizeTable(s.p.cfg.seed, uint64(300+i), fwdMsgBase, fwdJitter),
			payload:  make([]byte, fwdMsgBase),
			want:     make([]byte, fwdMsgBase),
			recv:     make([]byte, fwdMsgBase),
			sender:   vclock.NewActor(fmt.Sprintf("fwd-src-%d", dir[0])),
			receiver: vclock.NewActor(fmt.Sprintf("fwd-dst-%d", dir[1])),
			cmds:     make(chan fwdCmd),
			done:     make(chan error),
			ssp:      s.p.tr.buf(fmt.Sprintf("sender-%d", dir[0]), s.p.tracedUnits*4+64),
		}
		fillPattern(e.payload, s.p.cfg.seed, uint64(310+i))
		copy(e.want, e.payload)
		s.ends[i] = e
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			e.stream()
		}()
	}
	ph.channels = time.Since(t1)
	return nil
}

// stream is a sender goroutine: for each command it ships n stamped
// messages and reports the first error.
func (e *fwdEnd) stream() {
	for cmd := range e.cmds {
		e.sender.Sync(cmd.at)
		var err error
		for i := 0; i < cmd.n && err == nil; i++ {
			stamp(e.payload, cmd.base+uint32(i))
			err = e.sendOne(e.payload[:e.sizes[i%sizeTableLen]], cmd.base+uint32(i))
		}
		e.done <- err
	}
}

func (e *fwdEnd) sendOne(msg []byte, op uint32) error {
	root := e.ssp.beginOp(kPeer, op)
	err := e.pack(msg)
	e.ssp.end(root)
	return err
}

func (e *fwdEnd) pack(msg []byte) error {
	h := e.ssp.begin(kFwdBeginPacking)
	conn, err := e.vcSrc.BeginPacking(e.sender, e.dst)
	if err != nil {
		e.ssp.end(h)
		return err
	}
	e.ssp.end(h)
	h = e.ssp.begin(kFwdPack)
	if err := conn.Pack(msg, core.SendCheaper, core.ReceiveCheaper); err != nil {
		e.ssp.end(h)
		return err
	}
	e.ssp.end(h)
	h = e.ssp.begin(kFwdEndPacking)
	err = conn.EndPacking()
	e.ssp.end(h)
	return err
}

// recvOne is the generator's loop body: it takes delivery of one message
// and verifies it.
func (s *fwdBulk) recvOne(e *fwdEnd, i int, op uint32, mode verifyMode) (bool, error) {
	sz := e.sizes[i%sizeTableLen]
	root := s.sp.beginOp(kOp, op)
	from, err := s.unpack(e, e.recv[:sz])
	s.sp.end(root)
	if err != nil {
		return false, err
	}
	return s.check(e, from, sz, op, mode), nil
}

// check compares a delivered message with the sender's pattern for op.
func (s *fwdBulk) check(e *fwdEnd, from, sz int, op uint32, mode verifyMode) bool {
	s.flip.hit(e.recv)
	stamp(e.want, op)
	return from == e.src && sameBytes(e.recv[:sz], e.want[:sz], mode)
}

func (s *fwdBulk) unpack(e *fwdEnd, dst []byte) (from int, err error) {
	h := s.sp.begin(kFwdBeginUnpacking)
	conn, err := e.vcDst.BeginUnpacking(e.receiver)
	if err != nil {
		s.sp.end(h)
		return 0, err
	}
	s.sp.end(h)
	h = s.sp.begin(kFwdUnpack)
	if err := conn.Unpack(dst, core.SendCheaper, core.ReceiveCheaper); err != nil {
		s.sp.end(h)
		return 0, err
	}
	s.sp.end(h)
	h = s.sp.begin(kFwdEndUnpacking)
	err = conn.EndUnpacking()
	s.sp.end(h)
	return conn.Remote(), err
}

// segment streams n messages each way. Each half starts with both of its
// actors synced to the latest clock of the world, so its virtual duration
// is the receiver's clock delta and the halves add up.
func (s *fwdBulk) segment(n int, mode verifyMode) (ops, failed int, err error) {
	for _, e := range s.ends {
		t0 := s.clock
		for _, o := range s.ends {
			t0 = vclock.Max(t0, vclock.Max(o.sender.Now(), o.receiver.Now()))
		}
		e.receiver.Sync(t0)
		base := s.opSeq
		s.opSeq += uint32(n)
		e.cmds <- fwdCmd{n: n, at: t0, base: base}
		var recvErr error
		for i := 0; i < n && recvErr == nil; i++ {
			ok, err := s.recvOne(e, i, base+uint32(i), mode)
			ops++
			if err != nil {
				recvErr = err
			} else if !ok {
				failed++
			}
		}
		if recvErr != nil {
			// The sender may be blocked mid-stream: closing the channel
			// fails its sends so the hand-off below cannot wedge.
			s.closeVCs()
		}
		sendErr := <-e.done
		if recvErr != nil || sendErr != nil {
			return ops, failed + 1, fmt.Errorf("%d->%d: receive: %v, send: %v", e.src, e.dst, recvErr, sendErr)
		}
		s.clock += e.receiver.Now() - t0
	}
	return ops, failed, nil
}

func (s *fwdBulk) layer(m metricSet, p pass) {
	if !p.traced {
		return
	}
	fwdMetrics(m, p, float64(p.ops))
	k := p.sum.kinds
	m.set("fwd.pack_wall_us", ratio(float64(k[kFwdBeginPacking].total+k[kFwdPack].total+k[kFwdEndPacking].total), float64(k[kFwdPack].count))/1e3)
	m.set("fwd.unpack_wall_us", ratio(float64(k[kFwdBeginUnpacking].total+k[kFwdUnpack].total+k[kFwdEndUnpacking].total), float64(k[kFwdUnpack].count))/1e3)
}

// fwdMetrics reports the forwarding layer's counts for a traced pass that
// delivered msgs virtual-channel messages. A link packet is one core
// message on a segment channel: reliable mode counts them itself (first
// transmissions plus retransmits); best-effort worlds have no other
// channels, so every core message is one.
func fwdMetrics(m metricSet, p pass, msgs float64) {
	c := func(name string) float64 { return counterOf(p.delta, name) }
	packets := c("fwd/rel/packet") + c("fwd/rel/retransmit")
	if packets == 0 {
		packets = chanTotal(p.delta, "msgs-out")
	}
	m.set("fwd.packets_per_msg", ratio(packets, msgs))
	m.set("fwd.allocs_per_packet", ratio(float64(p.mallocs), packets))
	m.set("fwd.rel.packets", c("fwd/rel/packet"))
	m.set("fwd.rel.retransmits", c("fwd/rel/retransmit"))
	m.set("fwd.rel.acks", c("fwd/rel/ack"))
	m.set("fwd.rel.nacks", c("fwd/rel/nack"))
	m.set("fwd.rel.dup_suppressed", c("fwd/rel/dup-suppressed"))
	m.set("fwd.rel.backoffs", c("fwd/rel/backoff"))
	m.set("fwd.rel.retransmit_share", ratio(c("fwd/rel/retransmit"), c("fwd/rel/packet")))
	m.set("fwd.drops", c("fwd/drop/header")+c("fwd/drop/len")+c("fwd/drop/crc")+c("fwd/drop/route")+c("fwd/drop/closed"))
}

func (s *fwdBulk) closeVCs() {
	for _, v := range s.vcs {
		v.Close()
	}
}

func (s *fwdBulk) teardown() error {
	for _, e := range s.ends {
		close(e.cmds)
	}
	s.wg.Wait()
	var first error
	for r, v := range s.vcs {
		if err := v.Err(); err != nil && first == nil {
			first = fmt.Errorf("virtual channel on rank %d: %w", r, err)
		}
	}
	s.closeVCs()
	s.sess.Shutdown()
	return first
}
