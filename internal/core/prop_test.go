package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"madeleine2/internal/vclock"
)

// TestRandomMessageSequences is the library's central property test:
// arbitrary messages — random block counts, sizes spanning every TM of
// every driver, and random mode combinations — arrive bit-identical, with
// nondecreasing receive clocks, over every protocol module.
func TestRandomMessageSequences(t *testing.T) {
	for _, drv := range Drivers() {
		drv := drv
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				nblocks := 1 + rng.Intn(6)
				blocks := make([]block, nblocks)
				for i := range blocks {
					var n int
					switch rng.Intn(4) {
					case 0:
						n = 1 + rng.Intn(250) // short TMs
					case 1:
						n = 256 + rng.Intn(4<<10) // mid-size
					case 2:
						n = (8 << 10) + rng.Intn(32<<10) // streaming TMs
					default:
						n = 1 + rng.Intn(64<<10)
					}
					blocks[i] = block{
						data: pattern(n, byte(seed)+byte(i)),
						sm:   []SendMode{SendCheaper, SendSafer, SendLater}[rng.Intn(3)],
						rm:   []RecvMode{ReceiveCheaper, ReceiveExpress}[rng.Intn(2)],
					}
				}
				done := make(chan [][]byte, 1)
				go func() {
					got := recvMsg(t, chans[1], r, blocks)
					done <- got
				}()
				sendMsg(t, chans[0], s, 1, blocks)
				got := <-done
				for i := range blocks {
					if !bytes.Equal(got[i], blocks[i].data) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestClockMonotonicityUnderLoad checks the virtual-time invariant: across
// a long stream of messages, the receiver's clock never regresses and
// always trails a plausible physical bound (it cannot be faster than the
// driver's raw byte time).
func TestClockMonotonicityUnderLoad(t *testing.T) {
	chans, _ := newTestChannel(t, "bip")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	const msgs = 30
	go func() {
		for i := 0; i < msgs; i++ {
			conn, _ := chans[0].BeginPacking(s, 1)
			conn.Pack(pattern(1+(i*977)%(48<<10), byte(i)), SendCheaper, ReceiveCheaper)
			conn.EndPacking()
		}
	}()
	var prev vclock.Time
	total := 0
	for i := 0; i < msgs; i++ {
		n := 1 + (i*977)%(48<<10)
		conn, err := chans[1].BeginUnpacking(r)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		if err := conn.Unpack(buf, SendCheaper, ReceiveCheaper); err != nil {
			t.Fatal(err)
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Fatal(err)
		}
		total += n
		if r.Now() < prev {
			t.Fatalf("receiver clock regressed at message %d", i)
		}
		prev = r.Now()
	}
	// Physical floor: the stream cannot beat the raw wire.
	if floor := vclock.TimeForBytes(total, 130); r.Now() < floor {
		t.Errorf("stream of %d bytes finished in %v, faster than raw hardware (%v)", total, r.Now(), floor)
	}
}

// TestPingPongSymmetry checks that a ping-pong converges to a stable
// period: round-trip deltas between consecutive iterations are constant
// once credits and rings are warm.
func TestPingPongSymmetry(t *testing.T) {
	chans, _ := newTestChannel(t, "sisci")
	a0, a1 := vclock.NewActor("p0"), vclock.NewActor("p1")
	const iters = 12
	go func() {
		for i := 0; i < iters; i++ {
			conn, _ := chans[1].BeginUnpacking(a1)
			buf := make([]byte, 1024)
			conn.Unpack(buf, SendCheaper, ReceiveExpress)
			conn.EndUnpacking()
			back, _ := chans[1].BeginPacking(a1, 0)
			back.Pack(buf, SendCheaper, ReceiveExpress)
			back.EndPacking()
		}
	}()
	var rtts []vclock.Time
	prev := vclock.Time(0)
	msg := pattern(1024, 5)
	for i := 0; i < iters; i++ {
		conn, _ := chans[0].BeginPacking(a0, 1)
		conn.Pack(msg, SendCheaper, ReceiveExpress)
		conn.EndPacking()
		rc, _ := chans[0].BeginUnpacking(a0)
		buf := make([]byte, 1024)
		rc.Unpack(buf, SendCheaper, ReceiveExpress)
		rc.EndUnpacking()
		rtts = append(rtts, a0.Now()-prev)
		prev = a0.Now()
	}
	for i := 2; i < len(rtts); i++ {
		if rtts[i] != rtts[1] {
			// Credit-return messages may perturb isolated iterations, but
			// the period must stay within 20%.
			d := float64(rtts[i]-rtts[1]) / float64(rtts[1])
			if d < -0.2 || d > 0.2 {
				t.Fatalf("ping-pong period unstable: iter %d took %v vs steady %v", i, rtts[i], rtts[1])
			}
		}
	}
}
