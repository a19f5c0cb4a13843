package main

import (
	"fmt"
	"time"

	"madeleine2/internal/core"
	"madeleine2/internal/metrics"
	"madeleine2/internal/simnet"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// async_10k: an 8-node tcp world driven through the asynchronous
// submission interface. A round opens asyncConvs concurrent 64-byte
// conversations, round-robin over all 56 directed node pairs, each as a
// send conversation (SubmitPacking/SubmitPack/SubmitEnd) and its mirror
// receive conversation, then drains both completion queues. One operation
// is one conversation. The progress engine, its run queue, the completion
// queues and the FIFO lease hand-off do the work here; they are idle in
// the four synchronous workloads.

const (
	asyncNodes     = 8
	asyncConvs     = 10000
	asyncBytes     = 64 // smallest message; a round's size is up to asyncJitter more
	asyncJitter    = 32
	asyncSegRounds = 6 // rounds per measured segment at scale 1
)

type async10k struct {
	p     params
	sess  *core.Session
	chans map[int]*core.Channel
	pairs [][2]int
	scq   *core.CQ
	rcq   *core.CQ
	sp    *spanBuf
	flip  corrupter

	sizes   []int // per-round message size, seed-derived
	size    int   // this round's
	payload []byte
	base    []byte   // the seed's pattern; payload is base stamped with the round
	dsts    [][]byte // one receive buffer per conversation
	convs   int      // conversations per round
	round   uint32
	clock   vclock.Time // latest End completion seen: the makespan
}

func newAsync10k(p params) scenario { return &async10k{p: p, flip: corrupter{at: p.cfg.flipOp}} }

func (s *async10k) session() *core.Session { return s.sess }
func (s *async10k) virt() vclock.Time      { return s.clock }

func (s *async10k) setup(ph *phases) error {
	t0 := time.Now()
	w := simnet.NewWorld(asyncNodes)
	for i := 0; i < asyncNodes; i++ {
		w.Node(i).AddAdapter(tcpnet.Network)
	}
	s.sess = core.NewSessionWith(w, core.SessionSpec{Workers: core.DefaultWorkers})
	s.sess.SetObserver(s.p.obs)
	ph.world = time.Since(t0)

	t1 := time.Now()
	chans, err := s.sess.NewChannel(core.ChannelSpec{Name: "async", Driver: "tcp"})
	if err != nil {
		return err
	}
	s.chans = chans
	for src := 0; src < asyncNodes; src++ {
		for dst := 0; dst < asyncNodes; dst++ {
			if src != dst {
				s.pairs = append(s.pairs, [2]int{src, dst})
			}
		}
	}
	s.scq, s.rcq = core.NewCQ(), core.NewCQ()
	// A scale too small for one whole round shrinks the round instead, so
	// the smoke test stays fast.
	s.convs = asyncConvs
	if perSeg := s.p.cfg.scale * float64(asyncSegRounds); perSeg < 1 {
		s.convs = max(len(s.pairs), int(perSeg*asyncConvs))
	}
	// Per round: root, one submit span per conversation, two drains.
	s.sp = s.p.tr.buf("initiator", s.p.tracedUnits*(s.convs+3)+64)
	// Every message of a round has the round's size, because a receive
	// conversation cannot know which incoming message it will be bound to.
	s.sizes = sizeTable(s.p.cfg.seed, 501, asyncBytes, asyncJitter)
	const maxBytes = asyncBytes + asyncJitter
	s.base, s.payload = make([]byte, maxBytes), make([]byte, maxBytes)
	fillPattern(s.base, s.p.cfg.seed, 500)
	backing := make([]byte, s.convs*maxBytes)
	s.dsts = make([][]byte, s.convs)
	for k := range s.dsts {
		s.dsts[k] = backing[k*maxBytes : (k+1)*maxBytes : (k+1)*maxBytes]
	}
	ph.channels = time.Since(t1)
	return nil
}

// submitConv is the generator's loop body: one send conversation and its
// mirror receive conversation. Outcomes are collected from the completion
// queues, so the request handles are not kept.
func (s *async10k) submitConv(k int) error {
	pair := s.pairs[k%len(s.pairs)]
	h := s.sp.begin(kSubmit)
	send, err := s.chans[pair[0]].SubmitPacking(pair[1], s.scq)
	if err != nil {
		s.sp.end(h)
		return err
	}
	_ = send.SubmitPack(s.payload[:s.size], core.SendCheaper, core.ReceiveCheaper)
	_ = send.SubmitEnd()
	recv := s.chans[pair[1]].SubmitUnpacking(s.rcq)
	_ = recv.SubmitUnpack(s.dsts[k][:s.size], core.SendCheaper, core.ReceiveCheaper)
	_ = recv.SubmitEnd()
	s.sp.end(h)
	return nil
}

// drain waits for n End completions on cq and returns the latest virtual
// completion time.
func (s *async10k) drain(cq *core.CQ, n int) (vclock.Time, error) {
	h := s.sp.begin(kCQWait)
	defer s.sp.end(h)
	var last vclock.Time
	for done := 0; done < n; {
		c, ok := cq.Wait()
		if !ok {
			return last, fmt.Errorf("completion queue closed early")
		}
		if c.Err != nil {
			return last, fmt.Errorf("%v completion: %w", c.Kind, c.Err)
		}
		if c.Kind == core.OpEnd {
			done++
			last = vclock.Max(last, c.Time)
		}
	}
	return last, nil
}

func (s *async10k) segment(n int, mode verifyMode) (ops, failed int, err error) {
	for r := 0; r < n; r++ {
		s.prepare()
		root := s.sp.beginOp(kOp, s.round)
		for k := 0; k < s.convs && err == nil; k++ {
			err = s.submitConv(k)
		}
		var end vclock.Time
		if err == nil {
			_, err = s.drain(s.scq, s.convs)
		}
		if err == nil {
			end, err = s.drain(s.rcq, s.convs)
		}
		s.sp.end(root)
		ops += s.convs
		if err != nil {
			return ops, failed + 1, fmt.Errorf("round %d: %w", s.round, err)
		}
		s.clock = vclock.Max(s.clock, end)
		failed += s.check()
	}
	return ops, failed, nil
}

// prepare makes the round's payload: the seed's pattern stamped with the
// round number, so a buffer left over from the last round is caught.
func (s *async10k) prepare() {
	s.round++
	s.size = s.sizes[int(s.round)%sizeTableLen]
	copy(s.payload, s.base)
	stamp(s.payload, s.round)
}

// check counts the conversations whose receive buffer is wrong. Every
// message of a round carries the same bytes, so it does not matter which
// incoming message a receive conversation was bound to.
func (s *async10k) check() (failed int) {
	s.flip.hit(s.dsts[0])
	for _, dst := range s.dsts {
		if !sameBytes(dst[:s.size], s.payload[:s.size], verifyFull) {
			failed++
		}
	}
	return failed
}

func gaugeOf(s metrics.Snapshot, name string) float64 {
	v, _ := s.Gauge(name)
	return float64(v)
}

func (s *async10k) layer(m metricSet, p pass) {
	if !p.traced {
		return
	}
	k := p.sum.kinds
	m.set("core.async.submit_wall_us", k[kSubmit].meanSelfUS())
	m.set("core.async.drain_wall_us", ratio(float64(k[kCQWait].total), float64(p.ops))/1e3)
	m.set("core.async.runq_max", gaugeOf(p.delta, "async/runq-max"))
	m.set("core.async.occupancy_max", gaugeOf(p.delta, "async/occupancy-max"))
	m.set("core.async.cq_depth_max", gaugeOf(p.delta, "async/cq-depth-max"))
	m.set("core.async.parked_lease", counterOf(p.delta, "async/parked-lease"))
}

func (s *async10k) teardown() error {
	s.scq.Close()
	s.rcq.Close()
	for _, ch := range s.chans {
		ch.Close()
	}
	s.sess.Shutdown()
	return nil
}
