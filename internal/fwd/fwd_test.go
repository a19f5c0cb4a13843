package fwd

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/model"
	"madeleine2/internal/sbp"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
	"madeleine2/internal/via"
)

// twoClusters builds the paper's §6.2 testbed: an SCI cluster {0,1,2} and
// a Myrinet cluster {2,3,4} sharing gateway node 2, plus Fast Ethernet
// everywhere for the acknowledgment path.
func twoClusters(t testing.TB) *core.Session {
	t.Helper()
	w := simnet.NewWorld(5)
	for _, r := range []int{0, 1, 2} {
		w.Node(r).AddAdapter(sisci.Network)
	}
	for _, r := range []int{2, 3, 4} {
		w.Node(r).AddAdapter(bip.Network)
	}
	for r := 0; r < 5; r++ {
		w.Node(r).AddAdapter(tcpnet.Network)
	}
	return core.NewSession(w)
}

// sciMyriSpec is the SCI→Myrinet virtual channel.
func sciMyriSpec(name string, mtu int) Spec {
	return Spec{
		Name: name,
		MTU:  mtu,
		Segments: []core.ChannelSpec{
			{Driver: "sisci", Nodes: []int{0, 1, 2}},
			{Driver: "bip", Nodes: []int{2, 3, 4}},
		},
	}
}

func newVC(t testing.TB, sess *core.Session, spec Spec) map[int]*VC {
	t.Helper()
	vcs, err := New(sess, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, v := range vcs {
			v.Close()
		}
	})
	return vcs
}

// requireQuiescent closes every handle of the world and requires its
// session to be at rest (core.Session.CheckQuiescent). Close joins the
// rank's daemons and gateway pipelines, so one check settles it.
func requireQuiescent(t *testing.T, sess *core.Session, vcs map[int]*VC) {
	t.Helper()
	for _, v := range vcs {
		v.Close()
	}
	if err := sess.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*13 + seed
	}
	return b
}

// oneWay sends one message src→dst on the virtual channel and returns the
// receiver's completion time.
func oneWay(t *testing.T, vcs map[int]*VC, src, dst, n int) vclock.Time {
	t.Helper()
	payload := pattern(n, byte(n))
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	sent := make(chan struct{})
	defer func() { <-sent }() // join: one message at a time per connection
	go func() {
		defer close(sent)
		conn, err := vcs[src].BeginPacking(s, dst)
		if err != nil {
			panic(err)
		}
		if err := conn.Pack(payload, core.SendCheaper, core.ReceiveCheaper); err != nil {
			panic(err)
		}
		if err := conn.EndPacking(); err != nil {
			panic(err)
		}
	}()
	conn, err := vcs[dst].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Remote() != src {
		t.Fatalf("message origin = %d, want %d", conn.Remote(), src)
	}
	got := make([]byte, n)
	if err := conn.Unpack(got, core.SendCheaper, core.ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	if err := conn.EndUnpacking(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted across the gateway (%d bytes)", n)
	}
	return r.Now()
}

func TestRouting(t *testing.T) {
	routes, members, err := buildRoutes([][]int{{0, 1, 2}, {2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 5 {
		t.Fatalf("members = %v", members)
	}
	// 0 → 4 goes via the gateway 2 on segment 0.
	if h := routes[0][4]; h.seg != 0 || h.next != 2 {
		t.Errorf("route 0→4 = %+v", h)
	}
	// The gateway forwards on segment 1 directly to 4.
	if h := routes[2][4]; h.seg != 1 || h.next != 4 {
		t.Errorf("route 2→4 = %+v", h)
	}
	// Local traffic stays on its segment.
	if h := routes[0][1]; h.seg != 0 || h.next != 1 {
		t.Errorf("route 0→1 = %+v", h)
	}
	// Disconnected segment graph is rejected.
	if _, _, err := buildRoutes([][]int{{0, 1}, {2, 3}}); err == nil {
		t.Error("disconnected segments must be rejected")
	}
}

func TestForwardAcrossGateway(t *testing.T) {
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("het", 0))
	// SCI node → Myrinet node, through gateway 2, several sizes spanning
	// one and many MTU packets.
	for _, n := range []int{16, 4 << 10, 16 << 10, 100 << 10} {
		if got := oneWay(t, vcs, 0, 4, n); got <= 0 {
			t.Errorf("non-positive one-way time for %d bytes", n)
		}
	}
	// And the opposite direction.
	oneWay(t, vcs, 4, 0, 64<<10)
}

func TestLocalTrafficStaysLocal(t *testing.T) {
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("loc", 0))
	lat := oneWay(t, vcs, 0, 1, 1024)
	// One SCI hop plus generic-TM overhead: far below a forwarded trip.
	fwd := oneWay(t, vcs, 0, 3, 1024)
	if lat >= fwd {
		t.Errorf("local %v must be cheaper than forwarded %v", lat, fwd)
	}
}

func TestMultiBlockMessageWithExpressHeader(t *testing.T) {
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("blk", 0))
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	hdr := []byte{42, 0, 0, 1}
	body := pattern(40<<10, 7)
	go func() {
		conn, _ := vcs[1].BeginPacking(s, 3)
		conn.Pack(hdr, core.SendCheaper, core.ReceiveExpress)
		conn.Pack(body, core.SendCheaper, core.ReceiveCheaper)
		conn.EndPacking()
	}()
	conn, err := vcs[3].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	gh := make([]byte, 4)
	if err := conn.Unpack(gh, core.SendCheaper, core.ReceiveExpress); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gh, hdr) {
		t.Fatalf("express header = %v", gh)
	}
	gb := make([]byte, len(body))
	if err := conn.Unpack(gb, core.SendCheaper, core.ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	if err := conn.EndUnpacking(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, body) {
		t.Fatal("body corrupted")
	}
}

func TestManyMessagesThroughGatewayInOrder(t *testing.T) {
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("ord", 8<<10))
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	const msgs = 10
	go func() {
		for i := 0; i < msgs; i++ {
			conn, _ := vcs[0].BeginPacking(s, 4)
			conn.Pack(pattern(20<<10, byte(i)), core.SendCheaper, core.ReceiveCheaper)
			conn.EndPacking()
		}
	}()
	prev := vclock.Time(-1)
	for i := 0; i < msgs; i++ {
		conn, err := vcs[4].BeginUnpacking(r)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 20<<10)
		conn.Unpack(got, core.SendCheaper, core.ReceiveCheaper)
		if err := conn.EndUnpacking(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(20<<10, byte(i))) {
			t.Fatalf("message %d corrupted", i)
		}
		if r.Now() < prev {
			t.Fatalf("message %d regressed in time", i)
		}
		prev = r.Now()
	}
}

func TestThreeClusterChain(t *testing.T) {
	// SCI {0,1} — gateway 1 — TCP {1,2} — gateway 2 — Myrinet {2,3}.
	w := simnet.NewWorld(4)
	w.Node(0).AddAdapter(sisci.Network)
	w.Node(1).AddAdapter(sisci.Network)
	w.Node(1).AddAdapter(tcpnet.Network)
	w.Node(2).AddAdapter(tcpnet.Network)
	w.Node(2).AddAdapter(bip.Network)
	w.Node(3).AddAdapter(bip.Network)
	sess := core.NewSession(w)
	vcs := newVC(t, sess, Spec{
		Name: "chain",
		Segments: []core.ChannelSpec{
			{Driver: "sisci", Nodes: []int{0, 1}},
			{Driver: "tcp", Nodes: []int{1, 2}},
			{Driver: "bip", Nodes: []int{2, 3}},
		},
	})
	oneWay(t, vcs, 0, 3, 48<<10)
	oneWay(t, vcs, 3, 0, 48<<10)
}

func TestStaticStaticPaysOneCopy(t *testing.T) {
	// §6.1: "one extra copy cannot be avoided when both networks require
	// static buffers" — forcing the gateway copy on an SBP↔SBP route must
	// change nothing, because the copy is already being paid.
	run := func(force bool) vclock.Time {
		w := simnet.NewWorld(3)
		for r := 0; r < 3; r++ {
			w.Node(r).AddAdapter(sbp.Network)
		}
		sess := core.NewSession(w)
		spec := Spec{
			Name: "ss",
			MTU:  16 << 10,
			Segments: []core.ChannelSpec{
				{Driver: "sbp", Nodes: []int{0, 1}},
				{Driver: "sbp", Nodes: []int{1, 2}},
			},
			ForceGatewayCopy: force,
		}
		vcs := newVC(t, sess, spec)
		return oneWay(t, vcs, 0, 2, 64<<10)
	}
	base, forced := run(false), run(true)
	if base != forced {
		t.Errorf("both-static gateway: base %v vs forced-copy %v must match", base, forced)
	}
}

func TestGatewayHandoffSavesCopy(t *testing.T) {
	// Dynamic-capable gateway: the §6.1 hand-off saves the copy, so
	// forcing it must cost measurably more.
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("fast", 16<<10))
	base := oneWay(t, vcs, 0, 4, 512<<10)

	sess2 := twoClusters(t)
	spec := sciMyriSpec("slow", 16<<10)
	spec.ForceGatewayCopy = true
	vcs2 := newVC(t, sess2, spec)
	forced := oneWay(t, vcs2, 0, 4, 512<<10)
	if forced <= base {
		t.Errorf("forced gateway copy (%v) must be slower than the hand-off (%v)", forced, base)
	}
}

func TestBadSpecs(t *testing.T) {
	sess := twoClusters(t)
	if _, err := New(sess, Spec{Name: "e"}); err == nil {
		t.Error("empty segment list must fail")
	}
	if _, err := New(sess, Spec{Name: "m", MTU: 4, Segments: sciMyriSpec("x", 0).Segments}); err == nil {
		t.Error("absurd MTU must fail")
	}
	vcs := newVC(t, sess, sciMyriSpec("ok", 0))
	a := vclock.NewActor("a")
	if _, err := vcs[0].BeginPacking(a, 0); err == nil {
		t.Error("send-to-self must fail")
	}
	if _, err := vcs[0].BeginPacking(a, 9); err == nil {
		t.Error("unroutable destination must fail")
	}
	conn, _ := vcs[0].BeginPacking(a, 4)
	if err := conn.EndPacking(); err == nil {
		t.Error("empty message must fail")
	}
}

func TestHeaderCodec(t *testing.T) {
	h := header{Origin: 3, Dst: 4, Seq: 77, Len: 8192, Flags: flagFirst | flagLast, CRC: 0xDEADBEEF}
	got, err := decodeHeader(h.encode(new(hdrBuf)))
	if err != nil || got != h {
		t.Fatalf("round-trip = %+v, %v", got, err)
	}
	if _, err := decodeHeader(make([]byte, hdrSize)); err == nil {
		t.Error("zero magic must be rejected")
	}
	if _, err := decodeHeader(make([]byte, 3)); err == nil {
		t.Error("truncated header must be rejected")
	}
}

func TestGatewayPipelineTrace(t *testing.T) {
	// Fig. 9's claim made visible: in steady state the gateway's receive
	// thread and send thread overlap substantially. The spans travel
	// through the shared session observer — the same sink the core
	// channels record pack/unpack and per-TM spans into — not a bespoke
	// fwd recorder.
	sess := twoClusters(t)
	rec := trace.New(0)
	sess.SetObserver(core.NewObserver(rec))
	vcs := newVC(t, sess, sciMyriSpec("traced", 16<<10))
	oneWay(t, vcs, 0, 4, 1<<20)

	rx := "traced/n2/seg0-rx"
	tx := "traced/n2/0->1-tx"
	if rec.Busy(rx) == 0 || rec.Busy(tx) == 0 {
		t.Fatalf("gateway spans missing: rx %v, tx %v (have %d spans)",
			rec.Busy(rx), rec.Busy(tx), rec.Len())
	}
	overlap := rec.Overlap(rx, tx)
	if overlap == 0 {
		t.Error("dual-buffered pipeline must overlap receive and send")
	}
	// "one buffer can be sent while the other is received": a meaningful
	// fraction of the tx busy time overlaps the rx stream.
	if float64(overlap) < 0.3*float64(rec.Busy(tx)) {
		t.Errorf("overlap %v too small vs tx busy %v", overlap, rec.Busy(tx))
	}
	if out := rec.Timeline(60); len(out) == 0 {
		t.Error("timeline must render")
	}
}

func TestCorruptionDetectedAtDelivery(t *testing.T) {
	// Arm a payload-sized single-shot fault on the gateway's Myrinet
	// adapter: the checksum in the self-description header catches the
	// corruption when the packet is delivered to node 4.
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("crc", 0))
	oneWay(t, vcs, 0, 4, 512) // clean message first: the path works

	gwMyri, err := sess.World().Node(2).Adapter(bip.Network, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ≥100 bytes targets the 512 B payload, not the 40 B packet header.
	gwMyri.CorruptNextMin(100)
	go func() {
		a := vclock.NewActor("src")
		conn, err := vcs[0].BeginPacking(a, 4)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.Pack(pattern(512, 2), core.SendCheaper, core.ReceiveCheaper); err != nil {
			t.Error(err)
			return
		}
		if err := conn.EndPacking(); err != nil {
			t.Error(err)
		}
	}()
	r := vclock.NewActor("dst")
	conn, err := vcs[4].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := conn.Unpack(buf, core.SendCheaper, core.ReceiveCheaper); err == nil {
		t.Fatal("corrupted payload must fail the checksum at delivery")
	}
	requireQuiescent(t, sess, vcs)
}

func TestCrossDriverMatrix(t *testing.T) {
	// Every driver pair can be bridged by a gateway: the Generic TM's
	// promise of §6.1 ("portable on a wide range of network protocols").
	drivers := []struct{ name, network string }{
		{"sisci", sisci.Network},
		{"bip", bip.Network},
		{"tcp", tcpnet.Network},
		{"via", via.Network},
		{"sbp", sbp.Network},
	}
	for _, left := range drivers {
		for _, right := range drivers {
			t.Run(left.name+"_to_"+right.name, func(t *testing.T) {
				w := simnet.NewWorld(3)
				w.Node(0).AddAdapter(left.network)
				w.Node(1).AddAdapter(left.network)
				w.Node(1).AddAdapter(right.network)
				w.Node(2).AddAdapter(right.network)
				sess := core.NewSession(w)
				vcs := newVC(t, sess, Spec{
					Name: "mx-" + left.name + right.name,
					MTU:  8 << 10,
					Segments: []core.ChannelSpec{
						{Driver: left.name, Nodes: []int{0, 1}},
						{Driver: right.name, Nodes: []int{1, 2}},
					},
				})
				oneWay(t, vcs, 0, 2, 20<<10)
				oneWay(t, vcs, 2, 0, 20<<10)
			})
		}
	}
}

func TestRandomForwardedMessages(t *testing.T) {
	// Property: arbitrary block sequences survive fragmentation, gateway
	// forwarding and reassembly bit-identically.
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("prop", 4<<10))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nblocks := 1 + rng.Intn(5)
		blocks := make([][]byte, nblocks)
		for i := range blocks {
			blocks[i] = pattern(1+rng.Intn(20<<10), byte(seed)+byte(i))
		}
		rms := make([]core.RecvMode, nblocks)
		for i := range rms {
			rms[i] = []core.RecvMode{core.ReceiveCheaper, core.ReceiveExpress}[rng.Intn(2)]
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			a := vclock.NewActor("ps")
			conn, err := vcs[0].BeginPacking(a, 3)
			if err != nil {
				panic(err)
			}
			for i, b := range blocks {
				if err := conn.Pack(b, core.SendCheaper, rms[i]); err != nil {
					panic(err)
				}
			}
			if err := conn.EndPacking(); err != nil {
				panic(err)
			}
		}()
		r := vclock.NewActor("pr")
		conn, err := vcs[3].BeginUnpacking(r)
		if err != nil {
			return false
		}
		ok := true
		for i, b := range blocks {
			got := make([]byte, len(b))
			if err := conn.Unpack(got, core.SendCheaper, rms[i]); err != nil {
				return false
			}
			if !bytes.Equal(got, b) {
				ok = false
			}
		}
		if err := conn.EndUnpacking(); err != nil {
			return false
		}
		<-done
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestVCCloseSemantics(t *testing.T) {
	sess := twoClusters(t)
	vcs, err := New(sess, sciMyriSpec("close", 0))
	if err != nil {
		t.Fatal(err)
	}
	oneWay(t, vcs, 0, 1, 128)
	for _, v := range vcs {
		v.Close()
		v.Close() // idempotent
	}
	r := vclock.NewActor("r")
	if _, err := vcs[1].BeginUnpacking(r); err == nil {
		t.Error("BeginUnpacking after Close must fail")
	}
}

// blockingMover is a transmission method whose SendBuffer (core has
// announced the message) reports on entered and then blocks until release
// is closed. Its receive side reports the channel closed, which ends a
// daemon quietly.
type blockingMover struct {
	entered, release chan struct{}
	once             sync.Once
}

func (m *blockingMover) Name() string        { return "blocking" }
func (m *blockingMover) Link(int) model.Link { return model.Link{} }

func (m *blockingMover) SendBuffer(*vclock.Actor, *core.ConnState, []byte) error {
	m.once.Do(func() { close(m.entered) })
	<-m.release
	return nil
}

func (m *blockingMover) ReceiveBuffer(*vclock.Actor, *core.ConnState, []byte) error {
	return core.ErrClosed
}

// onePMM drives every block of a channel through one TM.
type onePMM struct{ tm core.TM }

func (p onePMM) Name() string                                     { return p.tm.Name() }
func (p onePMM) Select(int, core.SendMode, core.RecvMode) core.TM { return p.tm }
func (p onePMM) TMs() []core.TM                                   { return []core.TM{p.tm} }
func (p onePMM) PreConnect(*core.ConnState) error                 { return nil }
func (p onePMM) Connect(*core.ConnState) error                    { return nil }

// TestCloseJoinsPipelines relays a packet through gateway 1 onto a segment
// whose TM blocks in SendBuffer. The gateway's VC.Close must not return
// while its pipeline is blocked there, and returns once it is released.
func TestCloseJoinsPipelines(t *testing.T) {
	m := &blockingMover{entered: make(chan struct{}), release: make(chan struct{})}
	const drv = "fwd-blocking"
	if err := core.RegisterDriver(core.DriverDef{
		Name:  drv,
		Probe: func(*simnet.Node, int) error { return nil },
		New: func(*simnet.Node, int, int) (core.PMM, error) {
			return onePMM{core.NewDynamicTM(m)}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { core.UnregisterDriver(drv) })
	w := simnet.NewWorld(3)
	w.Node(0).AddAdapter(sisci.Network)
	w.Node(1).AddAdapter(sisci.Network)
	sess := core.NewSession(w)
	vcs := newVC(t, sess, Spec{Name: "held", Segments: []core.ChannelSpec{
		{Driver: "sisci", Nodes: []int{0, 1}},
		{Driver: drv, Nodes: []int{1, 2}},
	}})
	held := true
	defer func() {
		if held {
			close(m.release)
		}
	}()

	conn, err := vcs[0].BeginPacking(vclock.NewActor("s"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Pack(pattern(64, 1), core.SendCheaper, core.ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	if err := conn.EndPacking(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-m.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the gateway pipeline never reached the blocking TM")
	}
	closed := make(chan struct{})
	go func() {
		vcs[1].Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("VC.Close returned while a gateway pipeline was blocked in its TM")
	case <-time.After(200 * time.Millisecond):
	}
	close(m.release)
	held = false
	<-closed
	requireQuiescent(t, sess, vcs)
}
