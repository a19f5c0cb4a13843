package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/rdma"
	"madeleine2/internal/sbp"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
	"madeleine2/internal/via"
)

// The two ping-pong workloads: round trips of the paper's Table 1 message
// (an 8-byte receive_EXPRESS header announcing the size of a
// receive_CHEAPER body) over six persistent two-node channels, one per
// driver, visited in turn. pingpong_small and pingpong_bulk differ only in
// the body size, so they push the same core/PMM code in opposite regimes.

const hdrLen = 8

// networks lists every fabric a ping-pong node carries, in lane order.
var networks = map[string]string{
	"sisci": sisci.Network, "bip": bip.Network, "tcp": tcpnet.Network,
	"via": via.Network, "sbp": sbp.Network, "rdma": rdma.Network,
}

// lane is one driver's channel pair with everything its traffic needs,
// allocated in set-up.
type lane struct {
	driver string
	c0, c1 *core.Channel
	sizes  []int // per-operation body sizes, seed-derived
	static float64

	hdr, body   []byte // initiator's outgoing message
	rhdr, rbody []byte // initiator's receive buffers
	ehdr, ebody []byte // echoer's buffers
	pong        *vclock.Actor
	esp         *spanBuf
	echoErr     error

	// readings of pass A (laneStats)
	wall    time.Duration
	virt    vclock.Time
	mallocs uint64
	ops     int
}

type pingpong struct {
	p        params
	bodyBase int
	jitter   int

	sess   *core.Session
	lanes  []*lane
	ping   *vclock.Actor
	sp     *spanBuf
	echoes sync.WaitGroup
	flip   corrupter
	opSeq  uint32
}

func newPingpong(bodyBase, jitter int) func(p params) scenario {
	return func(p params) scenario {
		return &pingpong{p: p, bodyBase: bodyBase, jitter: jitter, flip: corrupter{at: p.cfg.flipOp}}
	}
}

// corrupter is the smoke test's hook: it flips one byte of the at-th
// received payload so the verifier has something to catch.
type corrupter struct{ at, seq int64 }

func (c *corrupter) hit(buf []byte) {
	c.seq++
	if c.seq == c.at {
		buf[0] ^= 0xff
	}
}

func (s *pingpong) session() *core.Session { return s.sess }
func (s *pingpong) virt() vclock.Time      { return s.ping.Now() }

func (s *pingpong) setup(ph *phases) error {
	t0 := time.Now()
	w := simnet.NewWorld(2)
	for i := 0; i < 2; i++ {
		for _, d := range laneDrivers {
			w.Node(i).AddAdapter(networks[d])
		}
	}
	s.sess = core.NewSession(w)
	s.sess.SetObserver(s.p.obs)
	ph.world = time.Since(t0)

	t1 := time.Now()
	s.ping = vclock.NewActor("ping")
	// 9 spans per round trip on each side (root + 4 send + 4 receive).
	spanCap := s.p.tracedUnits*len(laneDrivers)*9 + 64
	s.sp = s.p.tr.buf("initiator", spanCap)
	for li, d := range laneDrivers {
		chans, err := s.sess.NewChannel(core.ChannelSpec{Name: "pp-" + d, Driver: d})
		if err != nil {
			return err
		}
		l := &lane{driver: d, c0: chans[0], c1: chans[1], pong: vclock.NewActor("pong-" + d)}
		l.sizes = sizeTable(s.p.cfg.seed, uint64(100+li), s.bodyBase, s.jitter)
		n := slices.Max(l.sizes)
		l.hdr, l.rhdr, l.ehdr = make([]byte, hdrLen), make([]byte, hdrLen), make([]byte, hdrLen)
		l.body, l.rbody, l.ebody = make([]byte, n), make([]byte, n), make([]byte, n)
		fillPattern(l.body, s.p.cfg.seed, uint64(200+li))
		l.esp = s.p.tr.buf("echo-"+d, s.p.tracedUnits*9+64)
		for _, sz := range l.sizes {
			if l.c0.UsesStatic(hdrLen) {
				l.static += 0.5 / sizeTableLen
			}
			if l.c0.UsesStatic(sz) {
				l.static += 0.5 / sizeTableLen
			}
		}
		s.lanes = append(s.lanes, l)
		s.echoes.Add(1)
		go func() {
			defer s.echoes.Done()
			l.echoErr = l.echo()
		}()
	}
	ph.channels = time.Since(t1)
	return nil
}

// sendTable1 ships one header+body message, with a span around every call
// into core (no-ops when sp is nil).
func sendTable1(sp *spanBuf, ch *core.Channel, a *vclock.Actor, dst int, hdr, body []byte) error {
	// Each error test follows its call directly (madvet's packpair honours
	// the abort contract only then), so the span is closed on both branches.
	h := sp.begin(kBeginPacking)
	conn, err := ch.BeginPacking(a, dst)
	if err != nil {
		sp.end(h)
		return err
	}
	sp.end(h)
	h = sp.begin(kPackExpress)
	if err := conn.Pack(hdr, core.SendCheaper, core.ReceiveExpress); err != nil {
		sp.end(h)
		return err
	}
	sp.end(h)
	h = sp.begin(kPackCheaper)
	if err := conn.Pack(body, core.SendCheaper, core.ReceiveCheaper); err != nil {
		sp.end(h)
		return err
	}
	sp.end(h)
	h = sp.begin(kEndPacking)
	err = conn.EndPacking()
	sp.end(h)
	return err
}

// recvTable1 mirrors sendTable1: the express header tells how much of body
// the message carries. It returns the body length received.
func recvTable1(sp *spanBuf, ch *core.Channel, a *vclock.Actor, hdr, body []byte) (int, error) {
	h := sp.begin(kBeginUnpacking)
	conn, err := ch.BeginUnpacking(a)
	if err != nil {
		sp.end(h)
		return 0, err
	}
	sp.end(h)
	h = sp.begin(kUnpackExpress)
	if err := conn.Unpack(hdr, core.SendCheaper, core.ReceiveExpress); err != nil {
		sp.end(h)
		return 0, err
	}
	sp.end(h)
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n > len(body) {
		// A damaged header: unpack what fits so the message still ends.
		n = len(body)
	}
	h = sp.begin(kUnpackCheaper)
	if err := conn.Unpack(body[:n], core.SendCheaper, core.ReceiveCheaper); err != nil {
		sp.end(h)
		return 0, err
	}
	sp.end(h)
	h = sp.begin(kEndUnpacking)
	err = conn.EndUnpacking()
	sp.end(h)
	return n, err
}

// echo is the peer goroutine of one lane: it returns every message it
// receives until the channel closes.
func (l *lane) echo() error {
	for {
		root := l.esp.beginOp(kPeer, 0)
		n, err := recvTable1(l.esp, l.c1, l.pong, l.ehdr, l.ebody)
		if err == nil {
			l.esp.relabel(root, binary.LittleEndian.Uint32(l.ehdr))
			err = sendTable1(l.esp, l.c1, l.pong, 0, l.ehdr, l.ebody[:n])
		}
		l.esp.end(root)
		if errors.Is(err, core.ErrClosed) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// roundTrip is the generator's loop body: one stamped message out, its
// echo back, verified. Apart from the library calls it is prepare and
// check, which the generator test pins at zero allocations.
func (s *pingpong) roundTrip(l *lane, i int, mode verifyMode) (ok bool, err error) {
	sz := s.prepare(l, i)
	root := s.sp.beginOp(kOp, s.opSeq)
	err = sendTable1(s.sp, l.c0, s.ping, 1, l.hdr, l.body[:sz])
	n := 0
	if err == nil {
		n, err = recvTable1(s.sp, l.c0, s.ping, l.rhdr, l.rbody)
	}
	s.sp.end(root)
	if err != nil {
		return false, fmt.Errorf("%s lane: %w", l.driver, err)
	}
	return s.check(l, sz, n, mode), nil
}

// prepare stamps the next operation's number into header and body and
// returns the body size the seed's table gives it.
func (s *pingpong) prepare(l *lane, i int) int {
	sz := l.sizes[i%sizeTableLen]
	s.opSeq++
	binary.LittleEndian.PutUint32(l.hdr, s.opSeq)
	binary.LittleEndian.PutUint32(l.hdr[4:], uint32(sz))
	stamp(l.body, s.opSeq)
	return sz
}

// check compares the echo with what was sent.
func (s *pingpong) check(l *lane, sz, n int, mode verifyMode) bool {
	s.flip.hit(l.rbody)
	return n == sz && sameBytes(l.rhdr, l.hdr, verifyFull) && sameBytes(l.rbody[:n], l.body[:sz], mode)
}

func (s *pingpong) segment(n int, mode verifyMode) (ops, failed int, err error) {
	var m0, m1 runtime.MemStats
	for _, l := range s.lanes {
		var t0 time.Time
		var v0 vclock.Time
		if s.p.laneStats {
			runtime.ReadMemStats(&m0)
			t0, v0 = time.Now(), s.ping.Now()
		}
		for i := 0; i < n; i++ {
			ok, err := s.roundTrip(l, i, mode)
			ops++
			if err != nil {
				return ops, failed + 1, err
			}
			if !ok {
				failed++
			}
		}
		if s.p.laneStats && mode == verifySparse {
			l.wall += time.Since(t0)
			l.virt += s.ping.Now() - v0
			runtime.ReadMemStats(&m1)
			l.mallocs += m1.Mallocs - m0.Mallocs
			l.ops += n
		}
	}
	return ops, failed, nil
}

func (s *pingpong) layer(m metricSet, p pass) {
	if !p.traced {
		for _, l := range s.lanes {
			m.set("pmm."+l.driver+".ops_per_s", ratio(float64(l.ops), l.wall.Seconds()))
			m.set("pmm."+l.driver+".allocs_per_op", ratio(float64(l.mallocs), float64(l.ops)))
			m.set("pmm."+l.driver+".virt_us_per_op", ratio(l.virt.Microseconds(), float64(l.ops)))
		}
		return
	}
	static := 0.0
	for _, l := range s.lanes {
		static += l.static / float64(len(s.lanes))
	}
	m.set("core.static_tm_share", static)
	coreSpanMetrics(m, p.sum)

	// Virtual time per round trip, split by the library's own span labels
	// on the initiator's clock (P:pack, C:commit, w:lease-*, U:unpack,
	// K:checkout; F:flush nests inside pack). The initiator's unpack and
	// checkout include waiting for the echo, so the parts add up to
	// virt_us_per_op. Spans and opSeq both cover the world's whole life.
	var dur [256]vclock.Time
	for _, sp := range p.obs {
		if sp.Actor == s.ping.Name() && len(sp.Label) > 1 && sp.Label[1] == ':' {
			dur[sp.Label[0]] += sp.Duration()
		}
	}
	per := func(c byte) float64 { return ratio(dur[c].Microseconds(), float64(s.opSeq)) }
	m.set("core.virt.pack_us", per('P'))
	m.set("core.virt.commit_us", per('C'))
	m.set("core.virt.lease_wait_us", per('w'))
	m.set("core.virt.unpack_us", per('U'))
	m.set("core.virt.checkout_us", per('K'))
	m.set("core.virt.flush_us", per('F'))
}

// coreSpanMetrics reports the mean wall self time of each pack/unpack
// interface call, both sides of the ping-pong pooled.
func coreSpanMetrics(m metricSet, sum spanSummary) {
	for _, e := range []struct {
		name string
		kind spanKind
	}{
		{"core.begin_packing_wall_us", kBeginPacking},
		{"core.pack_express_wall_us", kPackExpress},
		{"core.pack_cheaper_wall_us", kPackCheaper},
		{"core.end_packing_wall_us", kEndPacking},
		{"core.begin_unpacking_wall_us", kBeginUnpacking},
		{"core.unpack_express_wall_us", kUnpackExpress},
		{"core.unpack_cheaper_wall_us", kUnpackCheaper},
		{"core.end_unpacking_wall_us", kEndUnpacking},
	} {
		m.set(e.name, sum.kinds[e.kind].meanSelfUS())
	}
}

func (s *pingpong) teardown() error {
	for _, l := range s.lanes {
		l.c0.Close()
		l.c1.Close()
	}
	s.echoes.Wait()
	s.sess.Shutdown()
	for _, l := range s.lanes {
		if l.echoErr != nil {
			return fmt.Errorf("%s echo: %w", l.driver, l.echoErr)
		}
	}
	return nil
}
