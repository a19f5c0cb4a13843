//go:build !race

package fwd

import (
	"runtime"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/vclock"
)

// TestGatewayPacketAllocs gates what fwd itself allocates for one packet,
// in both modes: injected on segment 0 by the test (so no sending VConn),
// then either delivered on node 1, or relayed by the gateway and delivered
// on node 3, and unpacked there. Every real-channel message (each hop, each
// verdict) is a Send/Recv scope, which costs core nothing, so the only
// allocation left is the consumer's VConn handle — header blocks, the
// delivered frame and the gateway's padded reliable wire frame are all
// reused.
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
			consumer, got, n := vclock.NewActor("consumer"), make([]byte, 64), 0
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
				conn, err := w.vcs[tc.dst].BeginUnpacking(consumer)
				if err == nil {
					err = conn.Unpack(got, core.SendCheaper, core.ReceiveCheaper)
				}
				if err == nil {
					err = conn.EndUnpacking()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				onePacket()
			}
			if allocs := testing.AllocsPerRun(300, onePacket); allocs > 1 {
				t.Errorf("%.2f allocs per packet: the path allocates more than the consumer's VConn", allocs)
			}
		})
	}
}

// TestVConnPackAllocs gates the sending side of a bulk message: 256 KiB in
// one block at an 8 KiB MTU, node 0 to node 4 across the gateway. Its 32
// packets per hop are Send/Recv scopes, which cost core nothing; the
// message allocates its two VConn handles and nothing else — the full
// fragments leave from the caller's block, the tail is staged in a
// recycled frame — so it allocates less than one MTU of bytes, not a copy
// of itself.
func TestVConnPackAllocs(t *testing.T) {
	const mtu, size = 8 << 10, 256 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun does: the byte count below sees the same schedule
	vcs := newVC(t, twoClusters(t), sciMyriSpec("bulk", mtu))
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	block, got := pattern(size, 1), make([]byte, size)
	received := make(chan error)
	go func() {
		for {
			conn, err := vcs[4].BeginUnpacking(r)
			if err != nil {
				return // closed by the test's cleanup
			}
			if err = conn.Unpack(got, core.SendCheaper, core.ReceiveCheaper); err == nil {
				err = conn.EndUnpacking()
			}
			received <- err
		}
	}()
	oneMessage := func() {
		conn, err := vcs[0].BeginPacking(s, 4)
		if err == nil {
			err = conn.Pack(block, core.SendCheaper, core.ReceiveCheaper)
		}
		if err == nil {
			err = conn.EndPacking()
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
	if allocs := testing.AllocsPerRun(100, oneMessage); allocs > 2 {
		t.Errorf("%.0f allocs per message: fwd allocates more than the two VConns", allocs)
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
}
