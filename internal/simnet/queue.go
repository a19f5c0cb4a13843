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

// Queue is an unbounded, ordered, reliable FIFO: the simulated equivalent
// of an in-order network lane plus the NIC receive ring behind it. It is
// unbounded so that simulated flow control (credits, rendezvous) is
// implemented by the drivers themselves, exactly where the real protocols
// implement it, rather than by accidental channel backpressure.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
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
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		panic("simnet: push on closed queue")
	}
	q.items = append(q.items, v)
	q.cond.Signal()
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
	q.items = append(q.items, v)
	q.cond.Signal()
	return true
}

// Pop removes and returns the head item, blocking until one is available.
// ok is false if the queue was closed and drained.
func (q *Queue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	return q.take(), true
}

// take removes the head item; the caller holds q.mu and has checked the
// queue is not empty. Taking the only item keeps the backing array where
// reslicing past it would give it up, so a producer and a consumer trading
// one item at a time (a lease token, a completion reaped right after it
// is posted) do not allocate per exchange.
func (q *Queue[T]) take() T {
	v := q.items[0]
	var zero T
	q.items[0] = zero // the backing array must not keep the item alive
	if len(q.items) == 1 {
		q.items = q.items[:0]
	} else {
		q.items = q.items[1:]
	}
	return v
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	return q.take(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Close marks the queue closed; blocked and future Pops drain the remaining
// items and then report ok = false.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
