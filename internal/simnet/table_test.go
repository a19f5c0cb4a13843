package simnet

import (
	"fmt"
	"sync"
	"testing"
)

// TestPeerOutsideWorld: a rank outside the world, or an adapter index the
// node lacks, is an error from Peer, not a panic, and an adapter added
// after a miss is found by the next lookup.
func TestPeerOutsideWorld(t *testing.T) {
	w := NewWorld(2)
	a0 := w.Node(0).AddAdapter("net")
	a1 := w.Node(1).AddAdapter("net")
	for _, c := range []struct{ node, idx int }{{2, 0}, {-1, 0}, {1 << 20, 0}, {1, 1}, {1, -1}} {
		if p, err := a0.Peer(c.node, c.idx); err == nil {
			t.Errorf("Peer(%d, %d) = %p, want an error", c.node, c.idx, p)
		}
	}
	if p, err := a0.Peer(1, 0); err != nil || p != a1 {
		t.Fatalf("Peer(1, 0) = %p, %v; want node 1's adapter", p, err)
	}
	b1 := w.Node(1).AddAdapter("net")
	if p, err := a0.Peer(1, 1); err != nil || p != b1 {
		t.Errorf("Peer(1, 1) after AddAdapter = %p, %v; want the new adapter", p, err)
	}
	if p, err := a0.Peer(1, 0); err != nil || p != a1 {
		t.Errorf("Peer(1, 0) after AddAdapter = %p, %v", p, err)
	}
}

// TestPeerTableConcurrent resolves peers from many goroutines while a node
// gains adapters: every lookup that succeeds returns the adapter at that
// index, whatever table snapshot it read.
func TestPeerTableConcurrent(t *testing.T) {
	const nodes, extra = 4, 6
	w := NewWorld(nodes)
	for r := 0; r < nodes; r++ {
		w.Node(r).AddAdapter("net")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < extra; i++ {
			w.Node(nodes - 1).AddAdapter("net")
		}
	}()
	for r := 0; r < nodes; r++ {
		a, _ := w.Node(r).Adapter("net", 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for d := 0; d < nodes; d++ {
					idx := i % (extra + 1)
					p, err := a.Peer(d, idx)
					if err == nil && (p.Node().ID() != d || p.Index() != idx) {
						t.Errorf("Peer(%d, %d) = adapter %d of node %d", d, idx, p.Index(), p.Node().ID())
					}
				}
			}
		}()
	}
	wg.Wait()
	if p, err := w.Node(0).adapters["net"][0].Peer(nodes-1, extra); err != nil || p.Index() != extra {
		t.Errorf("Peer(%d, %d) once every adapter exists = %v, %v", nodes-1, extra, p, err)
	}
}

// TestLaneTable delivers on lanes from several nodes at once, ids beyond
// the table's bound among them: each lane, found through the table or the
// map, delivers its own packets in order, and a resolved RxLane is the
// lane Deliver fills.
func TestLaneTable(t *testing.T) {
	const senders, msgs = 3, 50
	lanes := []int{0, 1, 7, laneTableMax - 1, laneTableMax, laneTableMax + 5}
	w := NewWorld(senders + 1)
	dst := w.Node(senders).AddAdapter("net")
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		src := w.Node(s).AddAdapter("net")
		for _, lane := range lanes {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					src.Deliver(dst, lane, Packet{Data: []byte(fmt.Sprint(i)), Tag: uint64(i)})
				}
			}()
			go func() {
				defer wg.Done()
				l := dst.RxLane(s, lane)
				for i := 0; i < msgs; i++ {
					p, ok := l.Recv()
					if !ok || p.Tag != uint64(i) || string(p.Data) != fmt.Sprint(i) {
						t.Errorf("node %d lane %d: packet %d = %+v, %v", s, lane, i, p, ok)
						return
					}
					l.Done()
				}
			}()
		}
	}
	wg.Wait()
	if dst.RxLane(0, laneTableMax+5) != dst.lane(0, laneTableMax+5) || dst.RxLane(-3, 0) != dst.lane(-3, 0) {
		t.Error("a lane outside the table resolves to two lanes")
	}
}
