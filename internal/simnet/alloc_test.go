//go:build !race

package simnet

import (
	"runtime"
	"testing"
)

// TestQueueRingDoesNotAllocate pins the queue's steady state at zero
// allocations whatever its depth: a producer and a consumer trading one
// item at a time over depth-1 resident ones (a lease token or a reaped
// completion at depth 1, a credit ring at 32) walk the ring around
// without touching the allocator — below, at and above the power-of-two
// sizes, after the ring has grown, and after it has drained again. Neither
// a parked Pop nor a Waiter parked by PopAsync allocates.
func TestQueueRingDoesNotAllocate(t *testing.T) {
	for _, depth := range []int{1, 2, 31, 32, 33, 1000} {
		q := NewQueue[int]()
		next, want := 0, 0
		exchange := func() {
			q.Push(next)
			next++
			if v, ok := q.TryPop(); !ok || v != want {
				t.Fatalf("depth %d: TryPop = %d,%v, want %d (FIFO order lost)", depth, v, ok, want)
			}
			want++
		}
		steady := func(when string) {
			t.Helper()
			exchange() // the ring reaches its size for this depth
			if allocs := testing.AllocsPerRun(3*depth+100, exchange); allocs != 0 {
				t.Errorf("depth %d, %s: %v allocations per push/pop exchange, want 0", depth, when, allocs)
			}
		}
		for i := 1; i < depth; i++ {
			q.Push(next)
			next++
		}
		steady("after growing to depth")
		for q.Len() > 0 {
			if v, _ := q.TryPop(); v != want {
				t.Fatalf("depth %d: drain popped %d, want %d", depth, v, want)
			}
			want++
		}
		steady("drained back to depth 1")
	}

	// The hand-off costs nothing either: a Pop parks on a ticket, and a
	// Waiter in the Slot it brings.
	q := NewQueue[int]()
	w, slot := &countWaiter{}, new(Slot)
	parkAsync := func() {
		if q.PopAsync(slot, w) {
			t.Fatal("PopAsync ran inline on an empty queue")
		}
		q.Push(1)
	}
	parkAsync()
	if allocs := testing.AllocsPerRun(1000, parkAsync); allocs != 0 {
		t.Errorf("%v allocations per async park and hand-off, want 0", allocs)
	}
	if q.Len() != 0 || q.Waiting() != 0 || w.n < 1000 {
		t.Fatalf("%d items and %d waiters left, %d handed: the Waiter was not handed every push", q.Len(), q.Waiting(), w.n)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := q.Pop(); !ok {
				return
			}
		}
	}()
	parkPop := func() {
		for q.Waiting() == 0 {
			runtime.Gosched()
		}
		q.Push(1)
	}
	parkPop()
	if allocs := testing.AllocsPerRun(1000, parkPop); allocs != 0 {
		t.Errorf("%v allocations per parked Pop and hand-off, want 0", allocs)
	}
	q.Close()
	<-done
}

// countWaiter counts the items it is handed.
type countWaiter struct{ n int }

func (w *countWaiter) Ready(int, bool) { w.n++ }

// TestBulkLaneBufferAllocs pins the bulk side of a lane's buffers: a
// payload above laneBufMax lands in the buffer the lane got back from its
// receiver, so a stream of round trips allocates nothing once the two
// buffers that circulate (the one lent, the one idle) exist, and the lane
// never keeps more than that one idle buffer, whatever sizes pass.
func TestBulkLaneBufferAllocs(t *testing.T) {
	w := NewWorld(2)
	a0, a1 := w.Node(0).AddAdapter("net"), w.Node(1).AddAdapter("net")
	l := a1.lane(0, 0)
	roundTrip := func(data []byte) []byte {
		a0.Deliver(a1, 0, Packet{Data: data})
		p, ok := a1.Recv(0, 0)
		if !ok || len(p.Data) != len(data) || p.Data[0] != data[0] || p.Data[len(data)-1] != data[len(data)-1] {
			t.Fatalf("round trip of %d bytes returned %d, ok=%v", len(data), len(p.Data), ok)
		}
		return p.Data
	}
	base := func(b []byte) *byte { return &b[:1][0] }

	mib := make([]byte, 1<<20)
	mib[0], mib[len(mib)-1] = 1, 2
	roundTrip(mib)
	roundTrip(mib)
	if allocs := testing.AllocsPerRun(20, func() { roundTrip(mib) }); allocs != 0 {
		t.Errorf("%v allocations per 1 MiB round trip after the second, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		roundTrip(mib)
	}
	runtime.ReadMemStats(&after)
	// The runtime's own background work shows up as a few bytes now and then.
	if n := after.TotalAlloc - before.TotalAlloc; n > 1024 {
		t.Errorf("%d bytes allocated over ten 1 MiB round trips in steady state, want none", n)
	}
	if cap(l.bulk) != len(mib) {
		t.Errorf("idle bulk buffer holds %d bytes, want the payload's exact %d", cap(l.bulk), len(mib))
	}

	// A smaller bulk payload lands in the larger idle buffer.
	idle := base(l.bulk)
	half := mib[:len(mib)/2]
	half[len(half)-1] = 3
	if got := roundTrip(half); base(got) != idle || cap(got) != len(mib) {
		t.Errorf("a %d-byte payload did not reuse the idle %d-byte buffer", len(half), len(mib))
	}
	// A larger one gets its own buffer, which replaces the smaller as the
	// idle one when it comes back; the lane holds one idle buffer throughout.
	big := make([]byte, 2<<20)
	big[0], big[len(big)-1] = 4, 5
	got := base(roundTrip(big))
	roundTrip(mib)
	if base(l.bulk) != got || cap(l.bulk) != len(big) {
		t.Errorf("idle bulk buffer holds %d bytes after a %d-byte payload came back, want that payload's buffer", cap(l.bulk), len(big))
	}
	// Small payloads never touch the bulk slot.
	roundTrip(mib[:laneBufMax])
	roundTrip(mib[:laneBufMax])
	if cap(l.bulk) != len(big) || len(l.free) > 2 {
		t.Errorf("small payloads moved the bulk slot (%d bytes) or piled up %d small buffers", cap(l.bulk), len(l.free))
	}
}
