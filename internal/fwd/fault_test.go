package fwd

import (
	"bytes"
	"testing"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// twoNodeTCP builds the smallest reliable-mode world: two nodes joined by
// Fast Ethernet, one single-segment virtual channel between them.
func twoNodeTCP(t *testing.T, spec Spec) (*core.Session, map[int]*VC) {
	t.Helper()
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(tcpnet.Network)
	w.Node(1).AddAdapter(tcpnet.Network)
	sess := core.NewSession(w)
	spec.Segments = []core.ChannelSpec{{Driver: "tcp", Nodes: []int{0, 1}}}
	return sess, newVC(t, sess, spec)
}

// sendMsg packs one message src→dst on its own goroutine; the returned
// channel closes when EndPacking came back, carrying its error.
func sendMsg(vcs map[int]*VC, src, dst int, payload []byte) chan error {
	done := make(chan error, 1)
	go func() {
		a := vclock.NewActor("hostile-src")
		conn, err := vcs[src].BeginPacking(a, dst)
		if err != nil {
			done <- err
			return
		}
		if err := conn.Pack(payload, core.SendCheaper, core.ReceiveCheaper); err != nil {
			done <- err
			return
		}
		done <- conn.EndPacking()
	}()
	return done
}

func TestCorruptChunkDoesNotPoisonNextMessage(t *testing.T) {
	// Satellite regression: a packet that fails its checksum mid-message
	// must poison only that message. The stream drains to the message
	// boundary and the next message arrives bit-exact.
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("poison", 512))
	oneWay(t, vcs, 0, 4, 512) // path sanity first

	gwMyri, err := sess.World().Node(2).Adapter(bip.Network, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Strike one ≥100 B transfer: a 512 B payload chunk of the three-packet
	// message, never the 40 B packet headers.
	gwMyri.CorruptNextMin(100)
	sent := sendMsg(vcs, 0, 4, pattern(1280, 3))

	r := vclock.NewActor("dst")
	conn, err := vcs[4].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1280)
	if err := conn.Unpack(buf, core.SendCheaper, core.ReceiveCheaper); err == nil {
		t.Fatal("corrupted chunk must fail the checksum at delivery")
	}
	if err := <-sent; err != nil {
		t.Fatalf("non-reliable sender must not see the receive-side fault: %v", err)
	}
	if n := vcs[4].RelStats().DeliveredCorrupt; n != 1 {
		t.Errorf("DeliveredCorrupt = %d, want 1", n)
	}

	// The poisoned message is fully drained: the next one starts on a
	// clean packet boundary and survives intact.
	oneWay(t, vcs, 0, 4, 777)
	if err := vcs[4].Err(); err != nil {
		t.Errorf("a poisoned message must not be fatal for the handle: %v", err)
	}
	requireQuiescent(t, sess, vcs)
}

func TestMidRouteCorruptionRelaysToTheEdge(t *testing.T) {
	// Satellite regression: corruption on the first leg used to panic the
	// gateway daemon. Now the gateway counts the mismatch and relays the
	// packet — the edge's delivery checksum reports it to the application.
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("midroute", 16<<10))
	oneWay(t, vcs, 0, 4, 16<<10)

	// SCI writes land in the importer's segment memory: node 2's adapter
	// owns what node 0 writes toward the gateway. ≥2000 B targets a 16 kB
	// payload chunk, sparing headers and any SCI control writes.
	gwSci, err := sess.World().Node(2).Adapter(sisci.Network, 0)
	if err != nil {
		t.Fatal(err)
	}
	gwSci.CorruptNextMin(2000)
	sent := sendMsg(vcs, 0, 4, pattern(32<<10, 5))

	r := vclock.NewActor("dst")
	conn, err := vcs[4].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32<<10)
	if err := conn.Unpack(buf, core.SendCheaper, core.ReceiveCheaper); err == nil {
		t.Fatal("mid-route corruption must surface at the delivery checksum")
	}
	if err := <-sent; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if n := vcs[2].RelStats().RelayedCorrupt; n != 1 {
		t.Errorf("gateway RelayedCorrupt = %d, want 1", n)
	}
	if err := vcs[2].Err(); err != nil {
		t.Fatalf("the gateway must survive a mid-route corruption: %v", err)
	}

	oneWay(t, vcs, 0, 4, 4096) // the route still works
	requireQuiescent(t, sess, vcs)
}

func TestLossyWorldDeliversViaRetransmit(t *testing.T) {
	// Tentpole acceptance: on a fabric corrupting and scrambling ~20% of
	// the data transfers, a reliable virtual channel delivers every
	// message bit-exact via NACK-driven retransmission, with no panic and
	// no fatal handle error.
	sess := twoClusters(t)
	plan := &simnet.FaultPlan{Seed: 7, Corrupt: 0.12, Drop: 0.08, MinBytes: 100}
	for _, a := range sess.World().Adapters() {
		a.SetFaults(plan)
	}
	spec := sciMyriSpec("lossy", 512)
	spec.Reliable = true
	vcs := newVC(t, sess, spec)

	const msgs, size = 8, 2000
	s, r := vclock.NewActor("ls"), vclock.NewActor("lr")
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			conn, err := vcs[0].BeginPacking(s, 4)
			if err != nil {
				sent <- err
				return
			}
			if err := conn.Pack(pattern(size, byte(i)), core.SendCheaper, core.ReceiveCheaper); err != nil {
				sent <- err
				return
			}
			if err := conn.EndPacking(); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < msgs; i++ {
		conn, err := vcs[4].BeginUnpacking(r)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		got := make([]byte, size)
		if err := conn.Unpack(got, core.SendCheaper, core.ReceiveCheaper); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !bytes.Equal(got, pattern(size, byte(i))) {
			t.Fatalf("message %d corrupted despite reliable mode", i)
		}
	}
	if err := <-sent; err != nil {
		t.Fatalf("sender: %v", err)
	}

	var rs RelStats
	for _, v := range vcs {
		rs.Add(v.RelStats())
		if err := v.Err(); err != nil {
			t.Errorf("rank %d failed fatally on a survivable fabric: %v", v.Rank(), err)
		}
	}
	if rs.Retransmits == 0 {
		t.Errorf("a ~20%% lossy fabric produced zero retransmits: %+v", rs)
	}
	if rs.DropCRC == 0 {
		t.Errorf("damaged packets must be dropped by checksum before delivery: %+v", rs)
	}
	requireQuiescent(t, sess, vcs)
}

func TestDamagedVerdictTriggersDupSuppression(t *testing.T) {
	// The protocol's subtle corner: the data packet arrives intact but its
	// ACK is damaged in flight. The sender must treat the unreadable
	// verdict as a NACK and retransmit; the receiver must recognize the
	// link sequence as a duplicate, suppress the second delivery, and
	// acknowledge again — exactly-once delivery despite a lying control
	// plane.
	sess, vcs := twoNodeTCP(t, Spec{Name: "dupctl", MTU: 512, Reliable: true})
	a1, err := sess.World().Node(1).Adapter(tcpnet.Network, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1's first outgoing ≥30 B transfer is the 48 B verdict frame.
	a1.CorruptNextMin(30)
	oneWay(t, vcs, 0, 1, 100)

	rs := vcs[0].RelStats()
	if rs.CtlDamaged != 1 || rs.Retransmits != 1 {
		t.Errorf("sender: CtlDamaged = %d, Retransmits = %d, want 1 and 1 (%+v)",
			rs.CtlDamaged, rs.Retransmits, rs)
	}
	if rs.Backoffs == 0 {
		t.Errorf("a retransmit must wait out a backoff first: %+v", rs)
	}
	if dup := vcs[1].RelStats().DupSuppress; dup != 1 {
		t.Errorf("receiver DupSuppress = %d, want 1", dup)
	}
	if err := vcs[0].Err(); err != nil {
		t.Errorf("one damaged verdict must not be fatal: %v", err)
	}
	requireQuiescent(t, sess, vcs)
}

func TestRetryExhaustionSurfacesError(t *testing.T) {
	// A link that scrambles every data packet defeats bounded retransmit:
	// the sender's handle must die with a descriptive error — not panic,
	// not hang — and the receiver must have dropped each damaged copy by
	// checksum and stayed alive.
	sess, vcs := twoNodeTCP(t, Spec{Name: "exhaust", MTU: 512, Reliable: true, MaxRetries: 2})
	a0, err := sess.World().Node(0).Adapter(tcpnet.Network, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every ≥100 B transfer out of node 0 is scrambled: all data payloads
	// die, while the 48 B headers and node 1's verdicts travel clean.
	a0.SetFaults(&simnet.FaultPlan{Seed: 11, Drop: 1, MinBytes: 100})

	if err := <-sendMsg(vcs, 0, 1, pattern(256, 9)); err == nil {
		t.Fatal("a fully lossy link must surface a send error")
	}
	if err := vcs[0].Err(); err == nil {
		t.Error("retry exhaustion must set the handle's fatal error")
	}
	// Initial transmission plus two retries, each caught by the payload
	// checksum and NACKed.
	if n := vcs[1].RelStats().DropCRC; n != 3 {
		t.Errorf("receiver DropCRC = %d, want 3", n)
	}
	if err := vcs[1].Err(); err != nil {
		t.Errorf("the receiver must survive a peer's retry exhaustion: %v", err)
	}
	requireQuiescent(t, sess, vcs)
}

func TestDamagedHeaderFailsHandleGracefully(t *testing.T) {
	// Non-reliable mode cannot resynchronize after a damaged header (the
	// payload length is unknowable), so the daemon converts the old panic
	// into a counted drop and a fatal handle error the application can
	// observe.
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("badhdr", 512))
	oneWay(t, vcs, 0, 4, 512)

	gwMyri, err := sess.World().Node(2).Adapter(bip.Network, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Strike the next transfer of any size: the 40 B packet header from
	// the gateway toward node 4, whose middle byte sits in the magic word.
	gwMyri.CorruptNextMin(1)
	if err := <-sendMsg(vcs, 0, 4, pattern(256, 4)); err != nil {
		t.Fatalf("sender: %v", err)
	}

	r := vclock.NewActor("dst")
	if _, err := vcs[4].BeginUnpacking(r); err == nil {
		t.Fatal("a desynchronized handle must fail BeginUnpacking")
	}
	if err := vcs[4].Err(); err == nil {
		t.Error("a damaged header must set the handle's fatal error")
	}
	rs := vcs[4].RelStats()
	if rs.DropHeader+rs.DropLen != 1 {
		t.Errorf("exactly one header-damage drop expected: %+v", rs)
	}
	requireQuiescent(t, sess, vcs)
}
