package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"madeleine2/internal/bip"
	"madeleine2/internal/rdma"
	"madeleine2/internal/sbp"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
	"madeleine2/internal/via"
)

// testWorld builds an n-node world with adapters for every driver network.
func testWorld(n int) *simnet.World {
	w := simnet.NewWorld(n)
	for i := 0; i < n; i++ {
		w.Node(i).AddAdapter(bip.Network)
		w.Node(i).AddAdapter(sisci.Network)
		w.Node(i).AddAdapter(tcpnet.Network)
		w.Node(i).AddAdapter(via.Network)
		w.Node(i).AddAdapter(sbp.Network)
		w.Node(i).AddAdapter(rdma.Network)
	}
	return w
}

// newTestChannel returns per-rank channels of a fresh 2-node session.
func newTestChannel(t *testing.T, driver string) (map[int]*Channel, *Session) {
	t.Helper()
	sess := NewSession(testWorld(2))
	chans, err := sess.NewChannel(ChannelSpec{Name: "test-" + driver, Driver: driver})
	if err != nil {
		t.Fatal(err)
	}
	return chans, sess
}

// block describes one packed block of a test message.
type block struct {
	data []byte
	sm   SendMode
	rm   RecvMode
}

// sendMsg packs the blocks as one message from rank src to rank dst.
func sendMsg(t *testing.T, ch *Channel, a *vclock.Actor, dst int, blocks []block) {
	t.Helper()
	conn, err := ch.BeginPacking(a, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := conn.Pack(b.data, b.sm, b.rm); err != nil {
			t.Fatalf("pack: %v", err)
		}
	}
	if err := conn.EndPacking(); err != nil {
		t.Fatalf("end packing: %v", err)
	}
}

// recvMsg mirrors sendMsg and returns the received blocks.
func recvMsg(t *testing.T, ch *Channel, a *vclock.Actor, blocks []block) [][]byte {
	t.Helper()
	conn, err := ch.BeginUnpacking(a)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(blocks))
	for i, b := range blocks {
		out[i] = make([]byte, len(b.data))
		if err := conn.Unpack(out[i], b.sm, b.rm); err != nil {
			t.Fatalf("unpack %d: %v", i, err)
		}
	}
	if err := conn.EndUnpacking(); err != nil {
		t.Fatalf("end unpacking: %v", err)
	}
	return out
}

// roundTrip sends blocks 0→1 on a fresh channel and checks payloads.
func roundTrip(t *testing.T, driver string, blocks []block) (sT, rT vclock.Time) {
	t.Helper()
	chans, _ := newTestChannel(t, driver)
	s, r := vclock.NewActor("send"), vclock.NewActor("recv")
	done := make(chan [][]byte, 1)
	go func() {
		got := recvMsg(t, chans[1], r, blocks)
		done <- got
	}()
	sendMsg(t, chans[0], s, 1, blocks)
	got := <-done
	for i, b := range blocks {
		if !bytes.Equal(got[i], b.data) {
			t.Fatalf("%s: block %d corrupted (%d bytes): got %x... want %x...",
				driver, i, len(b.data), head(got[i]), head(b.data))
		}
	}
	return s.Now(), r.Now()
}

func head(b []byte) []byte {
	if len(b) > 8 {
		return b[:8]
	}
	return b
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestTable1Interface(t *testing.T) {
	// Table 1: the six primitives exist with the documented roles. This
	// test pins the public API surface.
	chans, _ := newTestChannel(t, "tcp")
	a := vclock.NewActor("a")
	conn, err := chans[0].BeginPacking(a, 1) // mad_begin_packing
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Pack([]byte("x"), SendCheaper, ReceiveCheaper); err != nil { // mad_pack
		t.Fatal(err)
	}
	if err := conn.EndPacking(); err != nil { // mad_end_packing
		t.Fatal(err)
	}
	r := vclock.NewActor("b")
	rc, err := chans[1].BeginUnpacking(r) // mad_begin_unpacking
	if err != nil {
		t.Fatal(err)
	}
	if rc.Remote() != 0 {
		t.Errorf("connection remote = %d", rc.Remote())
	}
	buf := make([]byte, 1)
	if err := rc.Unpack(buf, SendCheaper, ReceiveCheaper); err != nil { // mad_unpack
		t.Fatal(err)
	}
	if err := rc.EndUnpacking(); err != nil { // mad_end_unpacking
		t.Fatal(err)
	}
	if buf[0] != 'x' {
		t.Errorf("payload = %q", buf)
	}
}

func TestTable2Interface(t *testing.T) {
	// Table 2: every TM implements the six-function interface; static
	// functions are "not relevant" (ErrNoStatic) on dynamic TMs.
	chans, _ := newTestChannel(t, "bip")
	pmm := chans[0].pmm
	long := pmm.Select(1<<20, SendCheaper, ReceiveCheaper)
	if long.Name() != "bip-long" || long.StaticSize() != 0 {
		t.Errorf("large blocks must select the dynamic long TM, got %s", long.Name())
	}
	if _, err := long.ObtainStaticBuffer(nil, nil); !errors.Is(err, ErrNoStatic) {
		t.Errorf("dynamic TM ObtainStaticBuffer err = %v", err)
	}
	short := pmm.Select(16, SendCheaper, ReceiveCheaper)
	if short.Name() != "bip-short" || short.StaticSize() <= 0 {
		t.Errorf("small blocks must select the static short TM, got %s", short.Name())
	}
	if short.Link(16).Bandwidth <= 0 || long.Link(1<<20).Bandwidth <= 0 {
		t.Error("TM links must carry cost models")
	}
}

func TestFig1ExampleAllDrivers(t *testing.T) {
	// The paper's Fig. 1: an EXPRESS size header followed by a CHEAPER
	// array of dynamic size.
	for _, drv := range Drivers() {
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			array := pattern(75*1024, 3)
			go func() {
				conn, _ := chans[0].BeginPacking(s, 1)
				n := []byte{byte(len(array)), byte(len(array) >> 8), byte(len(array) >> 16), 0}
				conn.Pack(n, SendCheaper, ReceiveExpress)
				conn.Pack(array, SendCheaper, ReceiveCheaper)
				conn.EndPacking()
			}()
			conn, err := chans[1].BeginUnpacking(r)
			if err != nil {
				t.Fatal(err)
			}
			nbuf := make([]byte, 4)
			// EXPRESS: the size is available right after this call.
			if err := conn.Unpack(nbuf, SendCheaper, ReceiveExpress); err != nil {
				t.Fatal(err)
			}
			n := int(nbuf[0]) | int(nbuf[1])<<8 | int(nbuf[2])<<16
			if n != len(array) {
				t.Fatalf("express header = %d, want %d", n, len(array))
			}
			data := make([]byte, n) // allocated from the received size
			if err := conn.Unpack(data, SendCheaper, ReceiveCheaper); err != nil {
				t.Fatal(err)
			}
			if err := conn.EndUnpacking(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, array) {
				t.Fatal("array corrupted")
			}
		})
	}
}

func TestAllModeCombinationsAllDrivers(t *testing.T) {
	// "There is no restriction about the combinations of the send and
	// receive modes" (§2.2).
	sms := []SendMode{SendCheaper, SendSafer, SendLater}
	rms := []RecvMode{ReceiveCheaper, ReceiveExpress}
	for _, drv := range Drivers() {
		for _, sm := range sms {
			for _, rm := range rms {
				t.Run(fmt.Sprintf("%s/%v/%v", drv, sm, rm), func(t *testing.T) {
					roundTrip(t, drv, []block{
						{pattern(64, 1), sm, rm},
						{pattern(5000, 2), sm, rm},
						{pattern(100*1024, 3), sm, rm},
					})
				})
			}
		}
	}
}

func TestSendSaferProtectsData(t *testing.T) {
	for _, drv := range []string{"tcp", "bip", "sisci"} {
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			data := pattern(512, 0)
			want := append([]byte(nil), data...)
			done := make(chan []byte, 1)
			go func() {
				conn, _ := chans[1].BeginUnpacking(r)
				got := make([]byte, len(data))
				conn.Unpack(got, SendSafer, ReceiveCheaper)
				conn.EndUnpacking()
				done <- got
			}()
			conn, _ := chans[0].BeginPacking(s, 1)
			conn.Pack(data, SendSafer, ReceiveCheaper)
			for i := range data {
				data[i] = 0xAA // clobber after pack, before end
			}
			conn.EndPacking()
			if got := <-done; !bytes.Equal(got, want) {
				t.Error("SAFER block must carry the pre-clobber contents")
			}
		})
	}
}

func TestSendLaterSeesUpdates(t *testing.T) {
	// send_LATER: "any modification of these data between their packing
	// and their sending shall actually update the message contents".
	for _, drv := range []string{"tcp", "bip", "sisci", "sbp", "via"} {
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			data := pattern(512, 0)
			done := make(chan []byte, 1)
			go func() {
				conn, _ := chans[1].BeginUnpacking(r)
				got := make([]byte, len(data))
				conn.Unpack(got, SendLater, ReceiveCheaper)
				conn.EndUnpacking()
				done <- got
			}()
			conn, _ := chans[0].BeginPacking(s, 1)
			conn.Pack(data, SendLater, ReceiveCheaper)
			for i := range data {
				data[i] = 0x5C // update after pack: must be visible
			}
			conn.EndPacking()
			got := <-done
			for i, b := range got {
				if b != 0x5C {
					t.Fatalf("byte %d = %#x, want the post-pack update", i, b)
				}
			}
		})
	}
}

func TestTMSwitchMidMessage(t *testing.T) {
	// A message mixing short and long blocks forces the Switch step to
	// change TM and flush (commit) in between (§4.1).
	for _, drv := range []string{"bip", "sisci", "via"} {
		t.Run(drv, func(t *testing.T) {
			roundTrip(t, drv, []block{
				{pattern(16, 1), SendCheaper, ReceiveCheaper},      // short TM
				{pattern(64*1024, 2), SendCheaper, ReceiveCheaper}, // long TM
				{pattern(16, 3), SendCheaper, ReceiveExpress},      // short again
				{pattern(9000, 4), SendLater, ReceiveCheaper},      // long again
			})
		})
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	chans, _ := newTestChannel(t, "sisci")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	const msgs = 40
	go func() {
		for i := 0; i < msgs; i++ {
			conn, _ := chans[0].BeginPacking(s, 1)
			conn.Pack([]byte{byte(i)}, SendCheaper, ReceiveExpress)
			conn.EndPacking()
		}
	}()
	prev := vclock.Time(-1)
	for i := 0; i < msgs; i++ {
		conn, err := chans[1].BeginUnpacking(r)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		conn.Unpack(b, SendCheaper, ReceiveExpress)
		conn.EndUnpacking()
		if b[0] != byte(i) {
			t.Fatalf("message %d carried %d", i, b[0])
		}
		if r.Now() < prev {
			t.Fatalf("message %d regressed in time", i)
		}
		prev = r.Now()
	}
}

func TestTwoChannelsDoNotInterfere(t *testing.T) {
	// "Communication over a given channel does not interfere with
	// communication over another channel" (§2.1).
	sess := NewSession(testWorld(2))
	chA, err := sess.NewChannel(ChannelSpec{Name: "A", Driver: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	chB, err := sess.NewChannel(ChannelSpec{Name: "B", Driver: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	// Send on A then B; receive B first.
	go func() {
		ca, _ := chA[0].BeginPacking(s, 1)
		ca.Pack([]byte("on-A"), SendCheaper, ReceiveCheaper)
		ca.EndPacking()
		cb, _ := chB[0].BeginPacking(s, 1)
		cb.Pack([]byte("on-B"), SendCheaper, ReceiveCheaper)
		cb.EndPacking()
	}()
	cb, _ := chB[1].BeginUnpacking(r)
	got := make([]byte, 4)
	cb.Unpack(got, SendCheaper, ReceiveCheaper)
	cb.EndUnpacking()
	if string(got) != "on-B" {
		t.Errorf("channel B got %q", got)
	}
	ca, _ := chA[1].BeginUnpacking(r)
	ca.Unpack(got, SendCheaper, ReceiveCheaper)
	ca.EndUnpacking()
	if string(got) != "on-A" {
		t.Errorf("channel A got %q", got)
	}
}

func TestThreeNodeFanIn(t *testing.T) {
	sess := NewSession(testWorld(3))
	chans, err := sess.NewChannel(ChannelSpec{Name: "fan", Driver: "bip"})
	if err != nil {
		t.Fatal(err)
	}
	for src := 1; src <= 2; src++ {
		src := src
		go func() {
			a := vclock.NewActor(fmt.Sprintf("s%d", src))
			conn, _ := chans[src].BeginPacking(a, 0)
			conn.Pack([]byte{byte(src)}, SendCheaper, ReceiveExpress)
			conn.EndPacking()
		}()
	}
	r := vclock.NewActor("r")
	seen := map[int]bool{}
	for i := 0; i < 2; i++ {
		conn, err := chans[0].BeginUnpacking(r)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		conn.Unpack(b, SendCheaper, ReceiveExpress)
		conn.EndUnpacking()
		if conn.Remote() != int(b[0]) {
			t.Errorf("connection remote %d but payload says %d", conn.Remote(), b[0])
		}
		seen[conn.Remote()] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("fan-in missed a sender: %v", seen)
	}
}

func TestChannelErrors(t *testing.T) {
	sess := NewSession(testWorld(2))
	if _, err := sess.NewChannel(ChannelSpec{Name: "x", Driver: "nosuch"}); err == nil {
		t.Error("unknown driver must fail")
	}
	if _, err := sess.NewChannel(ChannelSpec{Name: "x", Driver: "tcp", Nodes: []int{0}}); err == nil {
		t.Error("single-member channel must fail")
	}
	if _, err := sess.NewChannel(ChannelSpec{Name: "ok", Driver: "tcp"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.NewChannel(ChannelSpec{Name: "ok", Driver: "tcp"}); err == nil {
		t.Error("duplicate channel name must fail")
	}
	// Adapterless membership: a world where node 1 lacks the network.
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(bip.Network)
	s2 := NewSession(w)
	if _, err := s2.NewChannel(ChannelSpec{Name: "y", Driver: "bip"}); err == nil {
		t.Error("channel with one eligible node must fail")
	}
}

// TestDriverTable walks the one list of built-in modules: every name
// Drivers reports has a fabric, opens a channel on a world carrying only
// that fabric, and cannot be shadowed by an external module.
func TestDriverTable(t *testing.T) {
	for _, drv := range Drivers() {
		net, err := NetworkOf(drv)
		if err != nil {
			t.Errorf("NetworkOf(%q): %v", drv, err)
			continue
		}
		w := simnet.NewWorld(2)
		w.Node(0).AddAdapter(net)
		w.Node(1).AddAdapter(net)
		if _, err := NewSession(w).NewChannel(ChannelSpec{Name: drv, Driver: drv}); err != nil {
			t.Errorf("channel over %s on a %s world: %v", drv, net, err)
		}
		err = RegisterDriver(DriverDef{
			Name:  drv,
			Probe: func(*simnet.Node, int) error { return nil },
			New:   func(*simnet.Node, int, int) (PMM, error) { return nil, nil },
		})
		if err == nil {
			UnregisterDriver(drv)
			t.Errorf("RegisterDriver(%q) shadowed a built-in module", drv)
		}
	}
}

func TestConnectionStateErrors(t *testing.T) {
	chans, _ := newTestChannel(t, "tcp")
	a := vclock.NewActor("a")
	conn, _ := chans[0].BeginPacking(a, 1)
	if err := conn.Unpack(make([]byte, 1), SendCheaper, ReceiveCheaper); !errors.Is(err, ErrBadState) {
		t.Errorf("unpack on a packing connection: %v", err)
	}
	if err := conn.EndPacking(); !errors.Is(err, ErrEmptyMessage) {
		t.Errorf("empty message: %v", err)
	}
	if err := conn.Pack([]byte{1}, SendCheaper, ReceiveCheaper); !errors.Is(err, ErrBadState) {
		t.Errorf("pack after end: %v", err)
	}
	if _, err := chans[0].BeginPacking(a, 7); err == nil {
		t.Error("packing toward a non-member must fail")
	}
}

func TestAsymmetryDetected(t *testing.T) {
	// Receiver asks for fewer bytes than sent on the BIP long path.
	chans, _ := newTestChannel(t, "bip")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	go func() {
		conn, _ := chans[0].BeginPacking(s, 1)
		conn.Pack(pattern(8192, 0), SendCheaper, ReceiveExpress)
		conn.EndPacking()
	}()
	conn, err := chans[1].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Unpack(make([]byte, 4096), SendCheaper, ReceiveExpress); err == nil {
		t.Error("asymmetric unpack must be detected")
	}
}

func TestChannelStats(t *testing.T) {
	chans, _ := newTestChannel(t, "bip")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	blocks := []block{
		{pattern(16, 1), SendCheaper, ReceiveExpress},   // bip-short
		{pattern(8192, 2), SendCheaper, ReceiveCheaper}, // bip-long (TM switch)
	}
	done := make(chan [][]byte, 1)
	go func() { done <- recvMsg(t, chans[1], r, blocks) }()
	sendMsg(t, chans[0], s, 1, blocks)
	<-done

	st := chans[0].Stats()
	if st.MessagesOut != 1 || st.BlocksOut != 2 || st.BytesOut != 16+8192 {
		t.Errorf("sender stats = %s", st)
	}
	if st.Commits != 1 {
		t.Errorf("expected one Switch-step commit, got %s", st)
	}
	if st.TMBlocks["bip-short"] != 1 || st.TMBlocks["bip-long"] != 1 {
		t.Errorf("TM histogram = %v", st.TMBlocks)
	}
	rt := chans[1].Stats()
	if rt.MessagesIn != 1 || rt.BlocksIn != 2 || rt.BytesIn != 16+8192 {
		t.Errorf("receiver stats = %s", rt)
	}
	if rt.Checkouts != 1 {
		t.Errorf("expected one Switch-step checkout, got %s", rt)
	}
	// Snapshot isolation: mutating the returned map is safe.
	st.TMBlocks["bip-short"] = 999
	if chans[0].Stats().TMBlocks["bip-short"] != 1 {
		t.Error("Stats must return a copy")
	}
	if !strings.Contains(st.String(), "bip-long:1") {
		t.Errorf("String = %q", st.String())
	}
}
