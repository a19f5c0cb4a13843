//go:build !race

package fwd

import (
	"errors"
	"runtime"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/vclock"
)

// TestGatewayPacketAllocs gates what fwd itself allocates for one packet,
// in both modes: injected on segment 0 by the test (so no VC message),
// then either delivered on node 1, or relayed by the gateway and delivered
// on node 3, and read there off the origin's stream. Every real-channel
// message (each hop, each verdict) is a Send/Recv scope, which costs core
// nothing, and header blocks, the delivered frame and the gateway's padded
// reliable wire frame are all reused: a packet allocates nothing.
func TestGatewayPacketAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		rel  bool
		dst  int
	}{
		{"delivered", false, 1},
		{"relayed+delivered", false, 3},
		{"reliable/delivered", true, 1},
		{"reliable/relayed+delivered", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newFateWorld(t, tc.rel)
			next := w.vcs[0].next[tc.dst].next
			// Two pre-built packets with alternating link sequence numbers:
			// duplicate suppression compares against the last one only.
			var hbs, payloads [2][]byte
			for i := range hbs {
				h, payload := w.good(tc.dst, byte(i))
				hbs[i] = w.encode(h)
				if payloads[i] = payload; tc.rel {
					payloads[i] = append(payload, make([]byte, fateMTU-len(payload))...)
				}
			}
			in, n := w.vcs[tc.dst].streams[0], 0
			onePacket := func() {
				if err := rawSend(w.vcs[0].chans[0], w.a, next, hbs[n%2], payloads[n%2]); err != nil {
					t.Fatal(err)
				}
				n++
				if tc.rel {
					if vd, ok := w.vcs[0].rel.link(0, next).verdicts.Pop(); !ok || !vd.ok {
						t.Fatalf("verdict %+v, open=%v; want an ack", vd, ok)
					}
				}
				ck, ok := in.q.Pop()
				if !ok || ck.corrupt || len(ck.data) != 64 {
					t.Fatalf("delivered %d bytes, open=%v corrupt=%v; want 64 clean bytes", len(ck.data), ok, ck.corrupt)
				}
				w.vcs[tc.dst].freeFrame(ck.data)
			}
			for i := 0; i < 100; i++ {
				onePacket()
			}
			if allocs := testing.AllocsPerRun(300, onePacket); allocs > 0 {
				t.Errorf("%.2f allocs per packet: the packet path allocates", allocs)
			}
		})
	}
}

// TestVCPackAllocs gates a bulk message on the VC channel: 256 KiB in one
// block at an 8 KiB MTU, node 0 to node 4 across the gateway. Its 32
// packets per hop are Send/Recv scopes, which cost core nothing; the
// Generic TM sends full fragments from the caller's block and stages only
// the tail, in a recycled frame. So a Begin…/End… message allocates its
// two heap Connection handles and nothing else, a Send/Recv one nothing,
// and either allocates less than one MTU of bytes, not a copy of itself.
func TestVCPackAllocs(t *testing.T) {
	const mtu, size = 8 << 10, 256 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun does: the byte count below sees the same schedule
	for _, tc := range []struct {
		name   string
		scoped bool
		allocs float64
	}{{"heap-handles", false, 2}, {"scoped", true, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			vcs := newVC(t, twoClusters(t), sciMyriSpec("bulk", mtu))
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			block, got := pattern(size, 1), make([]byte, size)
			pack := func(conn *core.Connection) error { return conn.Pack(block, core.SendCheaper, core.ReceiveCheaper) }
			unpack := func(conn *core.Connection) error { return conn.Unpack(got, core.SendCheaper, core.ReceiveCheaper) }
			received := make(chan error)
			go func() {
				for {
					var err error
					if tc.scoped {
						err = vcs[4].Channel().Recv(r, unpack)
					} else {
						var conn *core.Connection
						if conn, err = vcs[4].BeginUnpacking(r); err == nil {
							if err = unpack(conn); err == nil {
								err = conn.EndUnpacking()
							}
						}
					}
					if errors.Is(err, core.ErrClosed) {
						return // closed by the test's cleanup
					}
					received <- err
				}
			}()
			oneMessage := func() {
				var err error
				if tc.scoped {
					err = vcs[0].Channel().Send(s, 4, pack)
				} else {
					var conn *core.Connection
					if conn, err = vcs[0].BeginPacking(s, 4); err == nil {
						if err = pack(conn); err == nil {
							err = conn.EndPacking()
						}
					}
				}
				if err == nil {
					err = <-received
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				oneMessage()
			}
			if allocs := testing.AllocsPerRun(100, oneMessage); allocs > tc.allocs {
				t.Errorf("%.0f allocs per message, want at most %.0f: fwd allocates beyond core's handles", allocs, tc.allocs)
			}
			const runs = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				oneMessage()
			}
			runtime.ReadMemStats(&after)
			if perMsg := (after.TotalAlloc - before.TotalAlloc) / runs; perMsg >= mtu {
				t.Errorf("%d bytes allocated per %d-byte message, want less than one MTU (%d): the message is being staged", perMsg, size, mtu)
			}
		})
	}
}
