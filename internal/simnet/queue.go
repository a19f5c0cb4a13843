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
	lent   bool // arrived through Lend: the sender's buffer, not the lane's
}

// ring is a growable FIFO ring buffer: pushes and pops in steady state
// touch no allocator, whatever the depth, and a popped slot is zeroed so
// the ring never keeps an item alive. A ring that drains empty after a
// burst grew it past ringKeep slots gives the memory back. It is not
// synchronized; Queue holds its rings under its lock.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// ringKeep is above every steady-state depth of the synchronous paths (the
// deepest is a 32-slot credit ring).
const ringKeep = 64

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head item; the ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	if r.n--; r.n == 0 && len(r.buf) > ringKeep {
		r.buf, r.head = nil, 0
	}
	return v
}

// Waiter is a Queue's asynchronous waiter (see PopAsync): Ready runs
// exactly once, after the queue's lock is dropped, on the goroutine that
// hands it an item (ok = true) or closes the queue (ok = false). Implement
// it on the waiting object itself, not a closure, so parking allocates
// nothing.
type Waiter[T any] interface{ Ready(v T, ok bool) }

// Slot is where a Waiter parks. The FIFO keeps a pointer to the slot, one
// word per parked waiter, and the slot keeps the Waiter, whatever the
// queue's item type, so one slot embedded in the waiting object serves
// every queue it waits on, one at a time.
type Slot struct{ w any }

// unpark empties a slot the FIFO has just given up.
func unpark[T any](s *Slot) Waiter[T] {
	w := s.w.(Waiter[T])
	s.w = nil
	return w
}

// Queue is an unbounded, ordered, reliable FIFO: the simulated equivalent
// of an in-order network lane plus the NIC receive ring behind it. It is
// unbounded so that simulated flow control (credits, rendezvous) is
// implemented by the drivers themselves, exactly where the real protocols
// implement it, rather than by accidental channel backpressure.
//
// It is also the library's one FIFO hand-off. An item pushed while someone
// waits goes straight to the oldest waiter, a parked Pop or a Waiter, and
// no later Pop or TryPop can take it first. A one-token queue is therefore
// a fair lock whose token carries the release stamp (a direction lease, a
// forwarding link).
//
// The zero Queue is empty and open.
type Queue[T any] struct {
	mu      sync.Mutex
	cond    sync.Cond   // on mu, set by the first Pop that parks
	items   ring[T]     // pushed while nobody waited
	waiters ring[*Slot] // oldest first; nil is a parked Pop
	handed  ring[T]     // items handed to parked Pops, oldest Pop first
	tickets uint64      // Pops parked so far
	served  uint64      // parked Pops that took their item
	closed  bool
}

// NewQueue returns an empty open queue.
func NewQueue[T any]() *Queue[T] { return new(Queue[T]) }

// Push appends v. Pushing to a closed queue panics: drivers own queue
// lifetime and never race close against send.
func (q *Queue[T]) Push(v T) {
	if !q.PushIfOpen(v) {
		panic("simnet: push on closed queue")
	}
}

// PushIfOpen appends v, or hands it to the oldest waiter, unless the queue
// is closed, reporting whether the item was accepted. Layers whose
// producers may legitimately race a receiver-side Close (a sender
// announcing a message to a channel being shut down) use it to turn the
// shutdown into an error instead of a panic. A Waiter handed v runs on the
// calling goroutine before PushIfOpen returns.
func (q *Queue[T]) PushIfOpen(v T) bool {
	q.mu.Lock()
	switch {
	case q.closed:
		q.mu.Unlock()
		return false
	case q.waiters.n == 0:
		q.items.push(v)
		q.mu.Unlock()
	default:
		s := q.waiters.pop()
		if s == nil {
			q.handed.push(v)
			q.mu.Unlock()
			q.cond.Broadcast() // the parked Pop with the oldest ticket takes it
			return true
		}
		w := unpark[T](s)
		q.mu.Unlock()
		w.Ready(v, true)
	}
	return true
}

// Pop removes and returns the head item, blocking until one is available.
// ok is false if the queue was closed and drained. A Pop that parks takes
// a ticket, so parking allocates nothing, and it is handed items in ticket
// order.
func (q *Queue[T]) Pop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.n > 0 {
		return q.items.pop(), true
	}
	if q.closed {
		return v, false
	}
	t := q.tickets
	q.tickets++
	q.waiters.push(nil)
	q.cond.L = &q.mu
	for q.served != t || q.handed.n == 0 {
		if q.closed && t >= q.served+uint64(q.handed.n) {
			return v, false // closed with nothing handed to this ticket
		}
		q.cond.Wait()
	}
	q.served++
	if q.handed.n > 1 {
		q.cond.Broadcast() // the next ticket's item is in already
	}
	return q.handed.pop(), true
}

// PopAsync is Pop for a Waiter, and never blocks. With an item queued (or
// the queue closed and drained) w.Ready runs before PopAsync returns,
// which then reports true. Otherwise w parks in s, which must be empty,
// behind the current waiters: it is handed an item on the pushing
// goroutine once every waiter ahead of it has one, or fails on the closing
// goroutine. s is empty again when Ready runs.
func (q *Queue[T]) PopAsync(s *Slot, w Waiter[T]) bool {
	q.mu.Lock()
	switch {
	case q.items.n > 0:
		v := q.items.pop()
		q.mu.Unlock()
		w.Ready(v, true)
	case q.closed:
		q.mu.Unlock()
		var zero T
		w.Ready(zero, false)
	default:
		s.w = w
		q.waiters.push(s)
		q.mu.Unlock()
		return false
	}
	return true
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.items.n == 0 {
		return v, false
	}
	return q.items.pop(), true
}

// Len reports the number of queued items, those already handed to a
// waiter excluded.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.n
}

// Waiting reports the number of parked waiters, Pops and Waiters alike.
func (q *Queue[T]) Waiting() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiters.n
}

// Close marks the queue closed: later pushes are refused, parked Waiters
// fail on the calling goroutine, and blocked and future Pops drain the
// remaining items (a parked Pop first takes what was handed to it) and then
// report ok = false. Idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	for q.waiters.n > 0 {
		if s := q.waiters.pop(); s != nil {
			w := unpark[T](s)
			q.mu.Unlock()
			var zero T
			w.Ready(zero, false)
			q.mu.Lock()
		}
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}
