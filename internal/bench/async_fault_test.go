package bench

import (
	"bytes"
	"errors"
	"testing"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// TestAsyncUnderFaults covers the completion-queue semantics on a hostile
// fabric: a reliable forwarding VC retransmits over lossy SCI/Myrinet
// links while asynchronous conversations run on the same session — a
// clean tcp channel carrying correct traffic, and a channel closed
// mid-conversation whose submitted operations complete with errors in
// sequence order without leaking the direction lease.
func TestAsyncUnderFaults(t *testing.T) {
	// The §6.2 two-cluster world: SCI {0,1,2}, Myrinet {2,3,4}, Fast
	// Ethernet everywhere.
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

	// Faults on the forwarding fabrics only; the tcp network stays clean
	// so the async channel's traffic is byte-checked, not fault-tolerant.
	plan := &simnet.FaultPlan{Seed: 7, Corrupt: 0.12, Drop: 0.08, MinBytes: 100}
	for _, a := range w.Adapters() {
		if a.Network() != tcpnet.Network {
			a.SetFaults(plan)
		}
	}

	sess := core.NewSessionWith(w, core.SessionSpec{Workers: 8})
	defer sess.Shutdown()
	vcs, err := fwd.New(sess, fwd.Spec{
		Name:     NextName("lossy-vc"),
		MTU:      4 << 10,
		Reliable: true,
		Segments: []core.ChannelSpec{
			{Driver: "sisci", Nodes: []int{0, 1, 2}},
			{Driver: "bip", Nodes: []int{2, 3, 4}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseVCs(vcs)
	achans, err := sess.NewChannel(core.ChannelSpec{Name: NextName("async-clean"), Driver: "tcp"})
	if err != nil {
		t.Fatal(err)
	}

	// Pending async conversations on the clean channel...
	const conversations = 64
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	scq, rcq := core.NewCQ(), core.NewCQ()
	dsts := make([][]byte, conversations)
	for i := 0; i < conversations; i++ {
		send, err := achans[0].SubmitPacking(4, scq)
		if err != nil {
			t.Fatal(err)
		}
		_ = send.SubmitPack(payload, core.SendCheaper, core.ReceiveCheaper)
		_ = send.SubmitEnd()
		recv := achans[4].SubmitUnpacking(rcq)
		dsts[i] = make([]byte, len(payload))
		_ = recv.SubmitUnpack(dsts[i], core.SendCheaper, core.ReceiveCheaper)
		_ = recv.SubmitEnd()
	}

	// ...while the reliable VC streams end-to-end across both lossy
	// segments (0 → gateway 2 → 4) underneath them.
	const vcMsgs = 6
	vcPayload := make([]byte, 24<<10)
	for i := range vcPayload {
		vcPayload[i] = byte(i * 7)
	}
	vcErr := make(chan error, 1)
	go func() {
		a := vclock.NewActor("vc-src")
		for i := 0; i < vcMsgs; i++ {
			conn, err := vcs[0].BeginPacking(a, 4)
			if err != nil {
				vcErr <- err
				return
			}
			if err := conn.Pack(vcPayload, core.SendCheaper, core.ReceiveCheaper); err != nil {
				vcErr <- err
				return
			}
			if err := conn.EndPacking(); err != nil {
				vcErr <- err
				return
			}
		}
		vcErr <- nil
	}()
	r := vclock.NewActor("vc-dst")
	for i := 0; i < vcMsgs; i++ {
		conn, err := vcs[4].BeginUnpacking(r)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(vcPayload))
		if err := conn.Unpack(buf, core.SendCheaper, core.ReceiveCheaper); err != nil {
			t.Fatal(err)
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, vcPayload) {
			t.Fatalf("VC message %d corrupted despite reliable mode", i)
		}
	}
	if err := <-vcErr; err != nil {
		t.Fatalf("VC sender: %v", err)
	}

	// The async conversations complete cleanly next to the retransmitting
	// VC, byte-exact.
	for done := 0; done < conversations; {
		c, ok := scq.Wait()
		if !ok {
			t.Fatal("send CQ closed early")
		}
		if c.Err != nil {
			t.Fatalf("send completion: %v", c.Err)
		}
		if c.Kind == core.OpEnd {
			done++
		}
	}
	for done := 0; done < conversations; {
		c, ok := rcq.Wait()
		if !ok {
			t.Fatal("recv CQ closed early")
		}
		if c.Err != nil {
			t.Fatalf("recv completion: %v", c.Err)
		}
		if c.Kind == core.OpEnd {
			done++
		}
	}
	for i, dst := range dsts {
		if !bytes.Equal(dst, payload) {
			t.Fatalf("async conversation %d corrupted on the clean channel", i)
		}
	}

	// The lossy fabric actually exercised the retransmission machinery.
	var rs fwd.RelStats
	for _, v := range vcs {
		s := v.RelStats()
		rs.Add(s)
	}
	if rs.Retransmits == 0 {
		t.Errorf("a ~20%% lossy fabric produced zero retransmits: %+v", rs)
	}

	// The metrics plane saw the burst: the completion queues backed up,
	// the engine's run queue filled and workers ran concurrently — the
	// high-water gauges publish through Session.Metrics — and the
	// registry's reliability mirror agrees with RelStats.
	snap := sess.Metrics().Snapshot()
	for _, g := range []string{"async/cq-depth-max", "async/runq-max", "async/occupancy-max"} {
		v, ok := snap.Gauge(g)
		if !ok || v <= 0 {
			t.Errorf("gauge %s = %d (present %v), want > 0", g, v, ok)
		}
	}
	if sub, _ := snap.Counter("async/submitted"); sub < 4*conversations {
		t.Errorf("async/submitted = %d, want >= %d", sub, 4*conversations)
	}
	if rel, _ := snap.Counter("fwd/rel/retransmit"); rel != rs.Retransmits {
		t.Errorf("registry fwd/rel/retransmit = %d, RelStats says %d", rel, rs.Retransmits)
	}
	// The world fault collector publishes what the adapters injected. Which
	// fates the plan deals depends on virtual injection times, hence on
	// goroutine interleaving, so only their sum is sure to be non-zero.
	var injected simnet.FaultStats
	for _, a := range w.Adapters() {
		st := a.FaultStats()
		injected.Corrupted += st.Corrupted
		injected.Dropped += st.Dropped
		injected.Delayed += st.Delayed
	}
	for name, want := range map[string]int64{
		"fault/corrupted": injected.Corrupted, "fault/dropped": injected.Dropped, "fault/delayed": injected.Delayed,
	} {
		if got, _ := snap.Counter(name); got != want {
			t.Errorf("registry %s = %d, the adapters' FaultStats sum to %d: the world fault collector is not publishing", name, got, want)
		}
	}
	if injected.Corrupted+injected.Dropped == 0 {
		t.Errorf("a ~20%% lossy fabric injected no fault: %+v", injected)
	}

	// Error completions in sequence order on a channel closed with
	// operations pending, and no lease leak afterwards.
	dying, err := sess.NewChannel(core.ChannelSpec{Name: NextName("async-dying"), Driver: "tcp", Nodes: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	dcq := core.NewCQ()
	recv := dying[1].SubmitUnpacking(dcq)
	buf := make([]byte, 64)
	_ = recv.SubmitUnpack(buf, core.SendCheaper, core.ReceiveCheaper)
	_ = recv.SubmitEnd()
	dying[1].Close()
	var errs []core.Completion
	for len(errs) < 2 {
		c, ok := dcq.Wait()
		if !ok {
			t.Fatal("dying CQ closed early")
		}
		errs = append(errs, c)
	}
	if !errors.Is(errs[0].Err, core.ErrClosed) || errs[0].Seq != 1 {
		t.Fatalf("first error completion %v seq %d, want ErrClosed seq 1", errs[0].Err, errs[0].Seq)
	}
	if !errors.Is(errs[1].Err, core.ErrBadState) || errs[1].Seq != 2 {
		t.Fatalf("second error completion %v seq %d, want ErrBadState seq 2", errs[1].Err, errs[1].Seq)
	}
	// The failed conversation held no lease; the send direction toward
	// the closed peer is likewise free for a fresh sync message.
	a := vclock.NewActor("retry")
	cn, err := dying[0].BeginPacking(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = cn.Pack(payload, core.SendCheaper, core.ReceiveCheaper)
	if err == nil {
		err = cn.EndPacking()
	}
	if !errors.Is(err, core.ErrClosed) {
		t.Fatalf("message toward closed peer: %v, want ErrClosed", err)
	}
}
