package simnet

import "sync"

// Packet is a unit of data in flight on the simulated fabric. Data is real
// (the receiver gets the actual bytes); Inject and Arrive are virtual-time
// stamps assigned by the sending driver from its cost model.
type Packet struct {
	Data   []byte
	Inject int64 // vclock.Time: sender began injecting
	Arrive int64 // vclock.Time: last byte lands at the receiver
	Tag    uint64
	Kind   int // driver-specific discriminator (e.g. control vs data)
}

// Ring is a growable FIFO ring buffer: pushes and pops in steady state
// touch no allocator, whatever the depth, and a popped slot is zeroed so
// the ring never keeps an item alive. A ring that drains empty after a
// burst grew it past ringKeep slots gives the memory back. It is not
// synchronized; Queue adds the lock and the blocking Pop, and single-owner
// FIFOs (a lease's parked waiters) embed it under their own lock.
type Ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// ringKeep is above every steady-state depth of the synchronous paths (the
// deepest is a 32-slot credit ring).
const ringKeep = 64

// Len reports the number of queued items.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v, doubling the ring when it is full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head item; the ring must not be empty.
func (r *Ring[T]) Pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	if r.n--; r.n == 0 && len(r.buf) > ringKeep {
		r.buf, r.head = nil, 0
	}
	return v
}

// Queue is an unbounded, ordered, reliable FIFO: the simulated equivalent
// of an in-order network lane plus the NIC receive ring behind it. It is
// unbounded so that simulated flow control (credits, rendezvous) is
// implemented by the drivers themselves, exactly where the real protocols
// implement it, rather than by accidental channel backpressure.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  Ring[T]
	closed bool
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends v. Pushing to a closed queue panics: drivers own queue
// lifetime and never race close against send.
func (q *Queue[T]) Push(v T) {
	if !q.PushIfOpen(v) {
		panic("simnet: push on closed queue")
	}
}

// PushIfOpen appends v unless the queue is closed, reporting whether the
// item was accepted. Layers whose producers may legitimately race a
// receiver-side Close (a sender announcing a message to a channel being
// shut down) use it to turn the shutdown into an error instead of a panic.
func (q *Queue[T]) PushIfOpen(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items.Push(v)
	q.cond.Signal()
	return true
}

// Pop removes and returns the head item, blocking until one is available.
// ok is false if the queue was closed and drained.
func (q *Queue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.items.Len() == 0 {
		return v, false
	}
	return q.items.Pop(), true
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.Len() == 0 {
		return v, false
	}
	return q.items.Pop(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

// Close marks the queue closed; blocked and future Pops drain the remaining
// items and then report ok = false.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
