package fwd

import (
	"bytes"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// twoNodeRails builds a two-node world with two Ethernet adapters per
// node and a single-segment virtual channel striping across both at 8 kB
// (below the MTU, so reliable-mode frames really fan out over the rails).
func twoNodeRails(t *testing.T, spec Spec) (*core.Session, map[int]*VC) {
	t.Helper()
	w := simnet.NewWorld(2)
	for i := 0; i < 2; i++ {
		w.Node(i).AddAdapter(tcpnet.Network)
		w.Node(i).AddAdapter(tcpnet.Network)
	}
	sess := core.NewSession(w)
	spec.Segments = []core.ChannelSpec{{
		Nodes:      []int{0, 1},
		Rails:      []core.RailSpec{{Driver: "tcp", Adapter: 0}, {Driver: "tcp", Adapter: 1}},
		StripeSize: 8 << 10,
	}}
	return sess, newVC(t, sess, spec)
}

// TestRailStripedForwardingDelivers is the plumbing check: a virtual
// channel whose segment is a multi-rail channel forwards striped messages
// end to end with no fwd-layer change at all.
func TestRailStripedForwardingDelivers(t *testing.T) {
	_, vcs := twoNodeRails(t, Spec{Name: "rails", MTU: 32 << 10})
	oneWay(t, vcs, 0, 1, 100)     // express-sized
	oneWay(t, vcs, 0, 1, 48<<10)  // one MTU frame, striped into 6 chunks
	oneWay(t, vcs, 0, 1, 100<<10) // several MTU frames
	for _, v := range vcs {
		if err := v.Err(); err != nil {
			t.Errorf("rank %d: %v", v.Rank(), err)
		}
	}
}

// TestLossyRailDeliversViaRetransmit is the ISSUE's fault scenario: one
// rail of a two-rail reliable channel corrupts and scrambles data
// transfers, and the reliable mode's CRC + NACK-driven retransmission
// still delivers every striped message bit-exact. The clean rail keeps
// carrying its half of each frame, so the test also proves a retransmit
// re-stripes consistently across both rails.
func TestLossyRailDeliversViaRetransmit(t *testing.T) {
	sess, vcs := twoNodeRails(t, Spec{Name: "lossyrail", MTU: 32 << 10, Reliable: true})
	// Faults on rail 1 only, both directions. MinBytes spares small
	// transfers, and the verdict/control frames ride rail 0 (the express
	// rail) anyway — so the faults land squarely on striped data chunks.
	plan := &simnet.FaultPlan{Seed: 23, Corrupt: 0.15, Drop: 0.1, MinBytes: 100}
	for i := 0; i < 2; i++ {
		a, err := sess.World().Node(i).Adapter(tcpnet.Network, 1)
		if err != nil {
			t.Fatal(err)
		}
		a.SetFaults(plan)
	}

	const msgs, size = 6, 48 << 10
	s, r := vclock.NewActor("ls"), vclock.NewActor("lr")
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			conn, err := vcs[0].BeginPacking(s, 1)
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
		conn, err := vcs[1].BeginUnpacking(r)
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
			t.Fatalf("message %d corrupted despite reliable mode over a lossy rail", i)
		}
	}
	if err := <-sent; err != nil {
		t.Fatalf("sender: %v", err)
	}

	var rs RelStats
	for _, v := range vcs {
		rs.Add(v.RelStats())
		if err := v.Err(); err != nil {
			t.Errorf("rank %d failed fatally on a survivable rail: %v", v.Rank(), err)
		}
	}
	if rs.Retransmits == 0 {
		t.Errorf("a lossy rail produced zero retransmits: %+v", rs)
	}
	if rs.DropCRC == 0 {
		t.Errorf("damaged striped frames must be dropped by checksum: %+v", rs)
	}
	requireQuiescent(t, sess, vcs)
}
