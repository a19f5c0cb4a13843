package core

import (
	"bytes"
	"fmt"
	"math/rand"
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

// railTestWorld builds an n-node world with `per` adapters on every
// driver network of every node, so multi-rail channels (same or mixed
// PMMs) can bind each rail to its own adapter.
func railTestWorld(n, per int) *simnet.World {
	w := simnet.NewWorld(n)
	for i := 0; i < n; i++ {
		for j := 0; j < per; j++ {
			w.Node(i).AddAdapter(bip.Network)
			w.Node(i).AddAdapter(sisci.Network)
			w.Node(i).AddAdapter(tcpnet.Network)
			w.Node(i).AddAdapter(via.Network)
			w.Node(i).AddAdapter(sbp.Network)
			w.Node(i).AddAdapter(rdma.Network)
		}
	}
	return w
}

// newRailTestChannel opens a 2-node multi-rail channel.
func newRailTestChannel(t *testing.T, name string, rails []RailSpec, stripe int) (map[int]*Channel, *Session) {
	t.Helper()
	sess := NewSession(railTestWorld(2, 4))
	chans, err := sess.NewChannel(ChannelSpec{Name: name, Rails: rails, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	return chans, sess
}

// sameRails builds n rails of one driver on adapters 0..n-1.
func sameRails(driver string, n int) []RailSpec {
	out := make([]RailSpec, n)
	for i := range out {
		out[i] = RailSpec{Driver: driver, Adapter: i}
	}
	return out
}

// randomBlocks draws a random pack sequence whose sizes cross the stripe
// cutoff in both directions and whose modes span the full matrix.
func randomBlocks(rng *rand.Rand, stripe int) []block {
	nblocks := 1 + rng.Intn(6)
	blocks := make([]block, nblocks)
	for i := range blocks {
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 1 + rng.Intn(250) // short TMs, express bypass
		case 1:
			n = 1 + rng.Intn(2*stripe) // straddles the cutoff
		case 2:
			n = stripe + 1 + rng.Intn(6*stripe) // striped, several chunks
		default:
			n = rng.Intn(3) // degenerate, incl. zero-length
		}
		blocks[i] = block{
			data: pattern(n, byte(i)*31+1),
			sm:   []SendMode{SendCheaper, SendSafer, SendLater}[rng.Intn(3)],
			rm:   []RecvMode{ReceiveCheaper, ReceiveExpress}[rng.Intn(2)],
		}
	}
	return blocks
}

// TestRailStripedDeliveryMatchesSingleRail is the striping property test:
// for random pack sequences, a multi-rail channel delivers bit-identically
// to a single-rail channel of the same driver — across driver sets that
// exercise all three BMM policies (tcp: dyn-aggregate; bip: dyn-eager and
// a static short path; sbp: static-copy end to end) and a mixed-PMM rail
// set. Run under -race this also exercises the per-rail goroutine fan-out.
func TestRailStripedDeliveryMatchesSingleRail(t *testing.T) {
	const stripe = 4 << 10
	cases := []struct {
		name  string
		rails []RailSpec
	}{
		{"tcp-x3", sameRails("tcp", 3)},
		{"bip-x2", sameRails("bip", 2)},
		{"sbp-x2", sameRails("sbp", 2)},
		{"sisci-x3", sameRails("sisci", 3)},
		{"via-x2", sameRails("via", 2)},
		{"mixed-tcp-bip-sisci", []RailSpec{{Driver: "tcp"}, {Driver: "bip"}, {Driver: "sisci"}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, nrails := range []int{1, len(tc.rails)} {
				chans, _ := newRailTestChannel(t, fmt.Sprintf("prop-%s-%d", tc.name, nrails), tc.rails[:nrails], stripe)
				s, r := vclock.NewActor("s"), vclock.NewActor("r")
				for seed := int64(0); seed < 12; seed++ {
					blocks := randomBlocks(rand.New(rand.NewSource(seed)), stripe)
					done := make(chan [][]byte, 1)
					go func() {
						done <- recvMsg(t, chans[1], r, blocks)
					}()
					sendMsg(t, chans[0], s, 1, blocks)
					got := <-done
					for i := range blocks {
						if !bytes.Equal(got[i], blocks[i].data) {
							t.Fatalf("%d rails, seed %d: block %d corrupted (%d bytes)",
								nrails, seed, i, len(blocks[i].data))
						}
					}
				}
			}
		})
	}
}

// TestRailExpressLatencyMatchesSingleAdapter pins the express-bypass
// acceptance criterion: a small message on a striping-enabled channel
// costs the same virtual time (±5%) as on a plain single-adapter channel
// of the same driver.
func TestRailExpressLatencyMatchesSingleAdapter(t *testing.T) {
	oneWay := func(chans map[int]*Channel, n int) vclock.Time {
		s, r := vclock.NewActor("s"), vclock.NewActor("r")
		blocks := []block{{data: pattern(n, 9), sm: SendCheaper, rm: ReceiveCheaper}}
		done := make(chan [][]byte, 1)
		go func() { done <- recvMsg(t, chans[1], r, blocks) }()
		sendMsg(t, chans[0], s, 1, blocks)
		<-done
		return r.Now()
	}
	for _, n := range []int{4, 256, 4 << 10} {
		// Fresh worlds per measurement: adapters carry serial TxEngines, so
		// sharing one world would queue the second run behind the first.
		plain, err := NewSession(railTestWorld(2, 2)).NewChannel(ChannelSpec{Name: "plain", Driver: "tcp"})
		if err != nil {
			t.Fatal(err)
		}
		railed, err := NewSession(railTestWorld(2, 2)).NewChannel(ChannelSpec{Name: "railed", Rails: sameRails("tcp", 2)})
		if err != nil {
			t.Fatal(err)
		}
		tp, tr := oneWay(plain, n), oneWay(railed, n)
		d := float64(tr-tp) / float64(tp)
		if d < -0.05 || d > 0.05 {
			t.Errorf("%d B express: plain %v vs 2-rail %v (%.1f%% off, want ±5%%)", n, tp, tr, 100*d)
		}
	}
}

// TestRailHeaderCleanFabric asserts the rail-header cross-check never
// fires on a clean fabric.
func TestRailHeaderCleanFabric(t *testing.T) {
	sess := NewSession(railTestWorld(2, 2))
	chans, err := sess.NewChannel(ChannelSpec{Name: "clean", Rails: sameRails("tcp", 2), StripeSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	blocks := []block{{data: pattern(64<<10, 2), sm: SendCheaper, rm: ReceiveCheaper}}
	done := make(chan [][]byte, 1)
	go func() { done <- recvMsg(t, chans[1], r, blocks) }()
	sendMsg(t, chans[0], s, 1, blocks)
	if got := <-done; !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("clean-fabric striped block corrupted")
	}
	if n, ok := sess.Metrics().Snapshot().Counter("rail/hdr-mismatch"); !ok || n != 0 {
		t.Errorf("rail/hdr-mismatch = %d on a clean fabric, want 0", n)
	}
}

// TestRailScrambledHeaderIsNotFatal injects byte corruption into every
// eligible transfer of both rails and checks the lenient-header contract:
// striped delivery still completes without error (placement comes from
// the deterministic layout), the stream stays aligned for subsequent
// messages, and the cross-check counter records the scrambled headers.
// End-to-end integrity under faults belongs to the fwd reliable mode.
func TestRailScrambledHeaderIsNotFatal(t *testing.T) {
	w := railTestWorld(2, 2)
	for _, a := range w.Adapters() {
		a.SetFaults(&simnet.FaultPlan{Seed: 7, Corrupt: 1, MinBytes: 64})
	}
	sess := NewSession(w) // unobserved: the cross-check counter is always on
	chans, err := sess.NewChannel(ChannelSpec{Name: "scrambled", Rails: sameRails("tcp", 2), StripeSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	for msg := 0; msg < 8; msg++ {
		blocks := []block{{data: pattern(96<<10, byte(msg)), sm: SendCheaper, rm: ReceiveCheaper}}
		done := make(chan [][]byte, 1)
		go func() { done <- recvMsg(t, chans[1], r, blocks) }()
		sendMsg(t, chans[0], s, 1, blocks)
		<-done // payload bytes are corrupted, but length and order survive
	}
	if n, _ := sess.Metrics().Snapshot().Counter("rail/hdr-mismatch"); n == 0 {
		t.Error("expected at least one scrambled rail header with Corrupt=1 over 768 frames")
	}
}

// TestRailSpecValidation covers the spec-level error paths.
func TestRailSpecValidation(t *testing.T) {
	sess := NewSession(railTestWorld(2, 2))
	for _, tc := range []struct {
		name string
		spec ChannelSpec
	}{
		{"duplicate rail", ChannelSpec{Name: "d", Rails: []RailSpec{{Driver: "tcp"}, {Driver: "tcp"}}}},
		{"unknown rail driver", ChannelSpec{Name: "u", Rails: []RailSpec{{Driver: "nope"}}}},
		{"too many rails", ChannelSpec{Name: "m", Rails: sameRails("tcp", maxRails+1)}},
		{"negative stripe", ChannelSpec{Name: "n", Rails: sameRails("tcp", 2), StripeSize: -1}},
		{"stripe without rails", ChannelSpec{Name: "s", Driver: "tcp", StripeSize: 4096}},
	} {
		if _, err := sess.NewChannel(tc.spec); err == nil {
			t.Errorf("%s: NewChannel accepted a bad spec", tc.name)
		}
	}
	// Membership probe: a rank missing one rail's adapter is excluded.
	w := simnet.NewWorld(3)
	for i := 0; i < 3; i++ {
		w.Node(i).AddAdapter(tcpnet.Network)
	}
	w.Node(0).AddAdapter(tcpnet.Network) // only node 0 has a second adapter
	w.Node(1).AddAdapter(tcpnet.Network)
	sess2 := NewSession(w)
	chans, err := sess2.NewChannel(ChannelSpec{Name: "probe", Rails: sameRails("tcp", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(chans) != 2 || chans[2] != nil {
		t.Errorf("membership = %d channels (rank 2 present: %v), want ranks {0,1}", len(chans), chans[2] != nil)
	}
}

// TestRailStatsAndIdentity checks the bookkeeping seams: the rail TMs are
// pre-registered for lock-free per-TM accounting, and express vs striped
// traffic lands on the right module.
func TestRailStatsAndIdentity(t *testing.T) {
	chans, _ := newRailTestChannel(t, "stats", sameRails("tcp", 2), 4<<10)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	blocks := []block{
		{data: pattern(128, 1), sm: SendCheaper, rm: ReceiveCheaper},    // express (small)
		{data: pattern(32<<10, 2), sm: SendCheaper, rm: ReceiveCheaper}, // striped
		{data: pattern(16<<10, 3), sm: SendCheaper, rm: ReceiveExpress}, // express (EXPRESS beats size)
	}
	done := make(chan [][]byte, 1)
	go func() { done <- recvMsg(t, chans[1], r, blocks) }()
	sendMsg(t, chans[0], s, 1, blocks)
	<-done
	st := chans[0].Stats()
	if st.TMBlocks["rail-express"] != 2 || st.TMBlocks["rail-stripe"] != 1 {
		t.Errorf("TMBlocks = %v, want rail-express:2 rail-stripe:1", st.TMBlocks)
	}
	if name := chans[0].PMMName(); name != "rails(tcp+tcp)" {
		t.Errorf("PMMName = %q", name)
	}
	if chans[0].UsesStatic(1 << 20) {
		t.Error("a rail channel must present dynamic buffers to the forwarding layer")
	}
}
