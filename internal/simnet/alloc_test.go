//go:build !race

package simnet

import "testing"

// TestQueueRingDoesNotAllocate pins the queue's steady state at zero
// allocations whatever its depth: a producer and a consumer trading one
// item at a time over depth-1 resident ones (a lease token or a reaped
// completion at depth 1, a credit ring at 32) walk the ring around
// without touching the allocator — below, at and above the power-of-two
// sizes, after the ring has grown, and after it has drained again.
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
}
