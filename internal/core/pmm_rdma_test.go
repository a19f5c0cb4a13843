package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"madeleine2/internal/model"
	"madeleine2/internal/rdma"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// TestRDMASelectCrossover pins the Switch decision: eager up to the
// calibrated crossover and for EXPRESS blocks (which must complete at
// Unpack), rendezvous above; the forced variants pin one TM regardless.
func TestRDMASelectCrossover(t *testing.T) {
	chans, _ := newTestChannel(t, "rdma")
	pmm := chans[0].pmm
	for _, tc := range []struct {
		n    int
		rm   RecvMode
		want string
	}{
		{16, ReceiveCheaper, "rdma-eager"},
		{model.RDMACrossover, ReceiveCheaper, "rdma-eager"},
		{model.RDMACrossover + 1, ReceiveCheaper, "rdma-rdv"},
		{1 << 20, ReceiveCheaper, "rdma-rdv"},
		{1 << 20, ReceiveExpress, "rdma-eager"},
	} {
		if got := pmm.Select(tc.n, SendCheaper, tc.rm).Name(); got != tc.want {
			t.Errorf("Select(%d, %v) = %s, want %s", tc.n, tc.rm, got, tc.want)
		}
	}
	for _, tc := range []struct{ drv, want string }{
		{"rdma-eager", "rdma-eager"},
		{"rdma-rdv", "rdma-rdv"},
	} {
		chans, _ := newTestChannel(t, tc.drv)
		for _, n := range []int{16, 1 << 20} {
			if got := chans[0].pmm.Select(n, SendCheaper, ReceiveCheaper).Name(); got != tc.want {
				t.Errorf("%s: Select(%d) = %s, want %s", tc.drv, n, got, tc.want)
			}
		}
	}
}

// TestRDMAByteIdenticalToTCP is the acceptance property: for random pack
// sequences, the rdma PMM delivers exactly what tcp delivers, across all
// three BMM policies — static-copy (the eager TM), dynamic-eager (the
// rendezvous TM, plus the whole sweep on the forced variants) and
// dynamic-aggregating (striped rdma rails).
func TestRDMAByteIdenticalToTCP(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nblocks := 1 + rng.Intn(5)
		blocks := make([]block, nblocks)
		for i := range blocks {
			var n int
			switch rng.Intn(3) {
			case 0:
				n = 1 + rng.Intn(model.RDMAEagerMax) // eager/static-copy
			case 1:
				n = model.RDMAEagerMax + 1 + rng.Intn(64<<10) // rendezvous
			default:
				n = 1 + rng.Intn(128<<10)
			}
			blocks[i] = block{
				data: pattern(n, byte(seed)+byte(i)),
				sm:   []SendMode{SendCheaper, SendSafer, SendLater}[rng.Intn(3)],
				rm:   []RecvMode{ReceiveCheaper, ReceiveExpress}[rng.Intn(2)],
			}
		}
		deliver := func(driver string, railed bool) [][]byte {
			t.Helper()
			var chans map[int]*Channel
			if railed {
				chans, _ = newRailTestChannel(t, fmt.Sprintf("prop-%s-%d", driver, seed),
					sameRails(driver, 2), 4<<10)
			} else {
				chans, _ = newTestChannel(t, driver)
			}
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			done := make(chan [][]byte, 1)
			go func() { done <- recvMsg(t, chans[1], r, blocks) }()
			sendMsg(t, chans[0], s, 1, blocks)
			return <-done
		}
		ref := deliver("tcp", false)
		for _, variant := range []struct {
			name   string
			railed bool
		}{
			{"rdma", false},
			{"rdma-eager", false},
			{"rdma-rdv", false},
			{"rdma", true},
		} {
			got := deliver(variant.name, variant.railed)
			for i := range blocks {
				if !bytes.Equal(got[i], ref[i]) {
					t.Fatalf("seed %d %s(railed=%v): block %d (%d bytes) differs from tcp delivery",
						seed, variant.name, variant.railed, i, len(blocks[i].data))
				}
			}
		}
	}
}

// TestRDMAEagerCreditRecycling drives far more eager slots through one
// message than the ring holds, so the sender must stall on credits and
// the batched credit returns must keep it alive.
func TestRDMAEagerCreditRecycling(t *testing.T) {
	blocks := make([]block, 4*model.RDMAEagerSlots)
	for i := range blocks {
		blocks[i] = block{data: pattern(512, byte(i)), sm: SendCheaper, rm: ReceiveCheaper}
	}
	roundTrip(t, "rdma", blocks)
	// And as one large static-copied stream chunked into every slot.
	roundTrip(t, "rdma-eager", []block{{data: pattern(24*model.RDMAEagerMax, 3), sm: SendCheaper, rm: ReceiveCheaper}})
}

// TestRDMAObservedTMs checks an observed channel attributes per-TM
// histograms to both new transmission modules.
func TestRDMAObservedTMs(t *testing.T) {
	sess := NewSession(testWorld(2))
	obs := NewObserver(nil)
	sess.SetObserver(obs)
	chans, err := sess.NewChannel(ChannelSpec{Name: "rdma-obs", Driver: "rdma"})
	if err != nil {
		t.Fatal(err)
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	blocks := []block{
		{data: pattern(256, 1), sm: SendCheaper, rm: ReceiveCheaper},
		{data: pattern(64<<10, 2), sm: SendCheaper, rm: ReceiveCheaper},
	}
	done := make(chan [][]byte, 1)
	go func() { done <- recvMsg(t, chans[1], r, blocks) }()
	sendMsg(t, chans[0], s, 1, blocks)
	<-done
	lats := obs.TMLatencies()
	if lats["rdma-eager/tx"].Count == 0 || lats["rdma-eager/rx"].Count == 0 {
		t.Error("rdma-eager histograms missing after eager traffic")
	}
	if lats["rdma-rdv/tx"].Count == 0 || lats["rdma-rdv/rx"].Count == 0 {
		t.Error("rdma-rdv histograms missing after rendezvous traffic")
	}
}

// hostileRDMARun drives rendezvous traffic through a corrupting fabric
// and reports the delivered payload intactness plus the fault counters.
func hostileRDMARun(t *testing.T, seed int64, msgs int) (counters map[string]int64) {
	t.Helper()
	w := testWorld(2)
	for i := 0; i < 2; i++ {
		a, err := w.Node(i).Adapter(rdma.Network, 0)
		if err != nil {
			t.Fatal(err)
		}
		// MinBytes 32 strikes the 64-byte RTS/CTS/FIN frames and every
		// payload while sparing the 16-byte verdicts and credits — the
		// module's documented contract.
		a.SetFaults(&simnet.FaultPlan{Seed: seed, Corrupt: 0.4, MinBytes: 32})
	}
	sess := NewSession(w) // unobserved: the fault counters are always on
	chans, err := sess.NewChannel(ChannelSpec{Name: "rdma-hostile", Driver: "rdma"})
	if err != nil {
		t.Fatal(err)
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	for msg := 0; msg < msgs; msg++ {
		blocks := []block{{data: pattern(48<<10, byte(msg)), sm: SendCheaper, rm: ReceiveCheaper}}
		done := make(chan [][]byte, 1)
		go func() { done <- recvMsg(t, chans[1], r, blocks) }()
		sendMsg(t, chans[0], s, 1, blocks)
		if got := <-done; !bytes.Equal(got[0], blocks[0].data) {
			t.Fatalf("seed %d message %d: rendezvous delivered a torn destination", seed, msg)
		}
	}
	if err := sess.CheckQuiescent(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	counters = map[string]int64{}
	for _, c := range sess.Metrics().Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	return counters
}

// TestRDMARendezvousHostileFabric is the satellite scenario: corruption
// on RTS/CTS control frames and on the RDMA-write payload must surface
// as counted errors and retransmits — never a torn destination handed to
// the application, and never a wedged lease (every message completes).
func TestRDMARendezvousHostileFabric(t *testing.T) {
	got := hostileRDMARun(t, 23, 6)
	if got["rdma/rdv-retransmit"] == 0 {
		t.Errorf("counters = %v: no retransmit counted under Corrupt=0.4", got)
	}
	if got["rdma/rdv-nack"] == 0 {
		t.Errorf("counters = %v: no NACK counted under Corrupt=0.4", got)
	}
	// Seeded fault plans are deterministic: the identical run reproduces
	// the identical error accounting.
	again := hostileRDMARun(t, 23, 6)
	for _, k := range []string{"rdma/rdv-retransmit", "rdma/rdv-nack", "rdma/ctrl-damaged"} {
		if got[k] != again[k] {
			t.Errorf("%s not deterministic: %d vs %d", k, got[k], again[k])
		}
	}
}

// TestRDMASendCompletionsReaped is the regression test for the send-queue
// leak: every EP.Write queues an initiator-side completion, the PMM waits
// on none of them, and before the fix each endpoint's queue grew by one
// entry per eager slot, control frame and credit write. After 10k mixed
// eager/rendezvous round trips both endpoints must have nothing pending,
// and reaping must not have moved virtual time: the end time is the one
// the unfixed PMM produced.
func TestRDMASendCompletionsReaped(t *testing.T) {
	const rounds = 10000
	const wantEnd = vclock.Time(696250000) // 696.25 ms, measured on the commit before the fix
	chans, _ := newTestChannel(t, "rdma")
	msg := func(i int) []block {
		if i%2 == 0 {
			return []block{{data: pattern(1024, byte(i)), sm: SendCheaper, rm: ReceiveCheaper}}
		}
		return []block{
			{data: pattern(8, byte(i)), sm: SendCheaper, rm: ReceiveExpress},
			{data: pattern(2*model.RDMACrossover, byte(i)), sm: SendCheaper, rm: ReceiveCheaper},
		}
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		a := vclock.NewActor("echo")
		for i := 0; i < rounds; i++ {
			recvMsg(t, chans[1], a, msg(i))
			sendMsg(t, chans[1], a, 0, msg(i))
		}
	}()
	a := vclock.NewActor("ping")
	for i := 0; i < rounds; i++ {
		sendMsg(t, chans[0], a, 1, msg(i))
		recvMsg(t, chans[0], a, msg(i))
	}
	<-echoed
	if a.Now() != wantEnd {
		t.Errorf("virtual end time %v, want %v: reaping send completions must not move the clock", a.Now(), wantEnd)
	}
	for r, ch := range chans {
		ep := rdmaState(ch.conns[1-r]).ep
		pending := 0
		for _, ok := ep.PollSend(); ok; _, ok = ep.PollSend() {
			pending++
		}
		if pending != 0 {
			t.Errorf("rank %d: %d send completions pending after %d round trips, want 0", r, pending, rounds)
		}
	}
}
