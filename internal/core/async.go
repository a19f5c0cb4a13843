package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"madeleine2/internal/metrics"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// This file implements the asynchronous submission interface: callers
// enqueue operation descriptors (SubmitPack/SubmitUnpack/SubmitEnd) on a
// conversation (AsyncMsg) and a per-session progress engine — a bounded
// pool of workers — drives the transmission modules under the existing
// per-direction virtual-time leases. Completions surface on completion
// queues (CQ) with both poll and callback delivery.
//
// The design follows LCI's split between a thin submission layer and an
// explicit progress engine: submission never blocks, lease ownership is
// handed from the submitter to an engine worker through the lease's own
// FIFO (see lease.acquireAsync), and a fixed worker pool services an
// unbounded number of logical conversations. The synchronous Pack/Unpack
// API is a wrapper over the same executors with the calling actor enlisted
// as its own conversation's progress thread, so sync and async traffic are
// byte-identical on the wire.

// OpKind discriminates the operation descriptors of the submission path.
type OpKind int

const (
	// OpPack appends one block to an outgoing message (async mad_pack).
	OpPack OpKind = iota
	// OpUnpack extracts one block of an incoming message (async mad_unpack).
	OpUnpack
	// OpEnd finalizes the conversation's message: EndPacking on a send
	// conversation, EndUnpacking on a receive conversation.
	OpEnd
)

// String names the kind for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpPack:
		return "pack"
	case OpUnpack:
		return "unpack"
	case OpEnd:
		return "end"
	}
	return fmt.Sprintf("opkind(%d)", int(k))
}

// Completion reports the outcome of one submitted operation.
type Completion struct {
	// Req is the request handle the matching Submit* returned.
	Req *Request
	// Kind is the completed operation's kind.
	Kind OpKind
	// Err is the operation's outcome; nil on success. A failed operation
	// aborts its conversation under the same contract as the sync API:
	// the lease is released, the connection closes, and every later
	// operation of the conversation completes with ErrBadState.
	Err error
	// Time is the conversation actor's virtual clock after the operation.
	Time vclock.Time
	// Seq is the operation's 1-based submission sequence number within its
	// conversation. Completions of one conversation are delivered in Seq
	// order.
	Seq uint64
	// N is the operation's block length in bytes (0 for OpEnd).
	N int
}

// Request states.
const (
	reqPending uint32 = iota
	reqDone
	reqDiscarded
)

// Request is the caller's handle on one submitted operation, and the
// operation's descriptor: it carries the block and modes until the engine
// has executed it, then the outcome. Every request reaches its
// conversation's completion queue (Poll/Wait/callback) unless it was
// explicitly Discarded, so no outcome is ever silently dropped and a
// caller that reads the CQ needs to keep no handle.
//
// A request is on at most one list at a time, through next: its
// conversation's pending FIFO (under the conversation lock) until a worker
// takes it, then, once done and not discarded, its CQ's FIFO (under the CQ
// lock) until Poll/Wait takes it. It is never recycled: a handle the caller
// kept stays valid, and keeps its conversation alive, for as long as the
// caller keeps it.
type Request struct {
	am   *AsyncMsg
	next *Request
	buf  []byte // the block; dropped at completion, so a kept handle does not pin it
	err  error
	time vclock.Time
	seq  uint64
	n    int
	sm   SendMode
	rm   RecvMode
	st   atomic.Uint32
	kind uint8 // an OpKind
}

func (r *Request) link() **Request { return &r.next }

// Kind reports the request's operation kind; Seq its submission sequence
// number within the conversation.
func (r *Request) Kind() OpKind { return OpKind(r.kind) }
func (r *Request) Seq() uint64  { return r.seq }

// Msg reports the conversation the request belongs to, so a completion
// consumer sharing one CQ across many conversations can route each
// completion back to its message.
func (r *Request) Msg() *AsyncMsg { return r.am }

// Done reports whether the operation has completed.
func (r *Request) Done() bool { return r.st.Load() == reqDone }

// Completion returns the completion once the operation is done.
func (r *Request) Completion() (Completion, bool) {
	if r.st.Load() != reqDone {
		return Completion{}, false
	}
	return r.completion(), true
}

// completion materialises the outcome of a done request.
func (r *Request) completion() Completion {
	return Completion{Req: r, Kind: OpKind(r.kind), Err: r.err, Time: r.time, Seq: r.seq, N: r.n}
}

// Err returns the completed operation's outcome; it reports nil while the
// operation is still pending (check Done first when that matters).
func (r *Request) Err() error {
	if r.st.Load() != reqDone {
		return nil
	}
	return r.err
}

// Discard renounces the completion: if the operation has not completed
// yet, its completion is suppressed from the conversation's CQ (the
// request still transitions internally so the engine's bookkeeping stays
// exact). Discarding a completed request is a no-op. Use it for
// fire-and-forget submissions whose outcome the conversation's End
// completion subsumes.
func (r *Request) Discard() { r.st.CompareAndSwap(reqPending, reqDiscarded) }

// linked is a node of an intrusive FIFO: *T hands out its one link field.
type linked[T any] interface {
	*T
	link() **T
}

// fifo is an intrusive FIFO: the nodes carry the link, so queueing
// allocates nothing whatever the depth, and a popped node's link is
// cleared, so neither the queue nor a kept node reaches the nodes behind
// it. Not synchronized; a node is on at most one fifo at a time.
type fifo[T any, P linked[T]] struct {
	head, tail *T
	n          int
}

func (q *fifo[T, P]) push(x *T) {
	if q.tail == nil {
		q.head = x
	} else {
		*P(q.tail).link() = x
	}
	q.tail = x
	q.n++
}

// pop removes and returns the head node, nil when the fifo is empty.
func (q *fifo[T, P]) pop() *T {
	x := q.head
	if x == nil {
		return nil
	}
	next := P(x).link()
	if q.head = *next; q.head == nil {
		q.tail = nil
	}
	*next = nil
	q.n--
	return x
}

// CQ is a completion queue. By default completions are buffered for
// Poll/Wait; OnCompletion switches the queue to callback delivery. A CQ
// may be shared by any number of conversations. The buffer is the done
// requests themselves, linked in completion order.
type CQ struct {
	mu     sync.Mutex
	cond   sync.Cond // on mu
	done   fifo[Request, *Request]
	closed bool
	cb     func(Completion)
}

// NewCQ returns an empty completion queue in poll mode.
func NewCQ() *CQ {
	cq := &CQ{}
	cq.cond.L = &cq.mu
	return cq
}

// Poll removes and returns the oldest buffered completion without
// blocking; ok is false when the queue is empty.
func (cq *CQ) Poll() (Completion, bool) { return cq.take(false) }

// Wait blocks until a completion is available (or the queue is closed and
// drained, reporting ok = false).
func (cq *CQ) Wait() (Completion, bool) { return cq.take(true) }

func (cq *CQ) take(wait bool) (Completion, bool) {
	cq.mu.Lock()
	for wait && cq.done.n == 0 && !cq.closed {
		cq.cond.Wait()
	}
	r := cq.done.pop()
	cq.mu.Unlock()
	if r == nil {
		return Completion{}, false
	}
	return r.completion(), true
}

// Len reports the number of buffered completions.
func (cq *CQ) Len() int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.done.n
}

// Close closes the queue: blocked and future Waits drain the remaining
// completions and then report ok = false; completions posted afterwards
// are dropped.
func (cq *CQ) Close() {
	cq.mu.Lock()
	cq.closed = true
	cq.mu.Unlock()
	cq.cond.Broadcast()
}

// OnCompletion switches the queue to callback delivery: fn runs
// synchronously on the completing goroutine (an engine worker usually; the
// caller of Channel.Close for a receive that Close fails) for every
// subsequent completion, which then does not reach Poll/Wait.
// The callback must be fast and must not submit to the completing
// conversation (it may submit to others). A nil fn reverts to poll mode.
func (cq *CQ) OnCompletion(fn func(Completion)) {
	cq.mu.Lock()
	cq.cb = fn
	cq.mu.Unlock()
}

// post delivers one done request and reports the buffered depth after it
// (0 when the completion went to the callback or the queue is closed).
func (cq *CQ) post(r *Request) int {
	cq.mu.Lock()
	if cb := cq.cb; cb != nil {
		cq.mu.Unlock()
		cb(r.completion())
		return 0
	}
	if cq.closed {
		cq.mu.Unlock()
		return 0
	}
	cq.done.push(r)
	depth := cq.done.n
	cq.mu.Unlock()
	cq.cond.Signal()
	return depth
}

// exec runs one descriptor on the connection with the connection's actor:
// the single-operation step of the progress engine, dispatching to the
// same Connection methods the synchronous API calls directly.
func (cn *Connection) exec(r *Request) error {
	switch OpKind(r.kind) {
	case OpPack:
		return cn.Pack(r.buf, r.sm, r.rm)
	case OpUnpack:
		return cn.Unpack(r.buf, r.sm, r.rm)
	case OpEnd:
		if cn.sending {
			return cn.EndPacking()
		}
		return cn.EndUnpacking()
	}
	panic(fmt.Sprintf("core: unknown op kind %d", r.kind))
}

// inlineOps is how many requests a conversation carries in its own
// allocation. Every in-tree producer submits two (one block and the End)
// or three (mpi's Isend: envelope, payload, End) operations per
// conversation; a longer one allocates its later requests one by one.
const inlineOps = 3

// AsyncMsg is one asynchronous conversation: the submission-path analog of
// the Connection returned by BeginPacking/BeginUnpacking. Operations
// submitted to it execute FIFO under the conversation's direction lease,
// and their completions are delivered to the conversation's CQ in
// submission order.
//
// A conversation is one heap object: its actor, its Connection and its
// first inlineOps requests live in it, so a request handle or a Completion
// the caller keeps also keeps the conversation, and nothing else does once
// it is over.
//
// Like a Connection, an AsyncMsg belongs to one submitting thread: Submit*
// calls must not race each other (completion handling — CQ draining,
// Request inspection — is free-threaded).
type AsyncMsg struct {
	ch   *Channel
	cq   *CQ
	runq *AsyncMsg // link on the engine's run queue, under its lock

	mu      sync.Mutex
	pending fifo[Request, *Request] // submitted, not yet executed
	seq     uint32                  // last assigned sequence number (a message has fewer than 2^32 operations)
	queued  bool                    // on a run queue or being drained by a worker
	ready   bool                    // lease held and conn bound — runnable; conn is the engine's from then on
	dead    bool                    // message finished or conversation aborted; pending is empty
	sending bool
	err     error // first causal error when dead by failure

	park   simnet.Slot // where the conversation waits for its announcement, then its lease
	actor  vclock.Actor
	conn   Connection // conn.cs is set before the lease is requested, the rest at the grant
	inline [inlineOps]Request
}

func (am *AsyncMsg) link() **AsyncMsg { return &am.runq }

// Channel returns the owning channel.
func (am *AsyncMsg) Channel() *Channel { return am.ch }

// Sending reports the conversation's direction.
func (am *AsyncMsg) Sending() bool { return am.sending }

// Remote reports the peer rank; a receive conversation reports -1 until
// an incoming message has been bound to it.
func (am *AsyncMsg) Remote() int {
	am.mu.Lock()
	defer am.mu.Unlock()
	if !am.sending && !am.ready {
		return -1
	}
	return am.conn.cs.remote
}

// Err reports the conversation's first causal error (nil while healthy).
func (am *AsyncMsg) Err() error {
	am.mu.Lock()
	defer am.mu.Unlock()
	return am.err
}

// SubmitPacking opens an asynchronous conversation toward remote: the
// non-blocking analog of BeginPacking. The send lease is requested
// immediately; once granted (possibly before SubmitPacking returns, on an
// uncontended connection) the engine starts executing submitted
// operations. Completions are delivered to cq, which may be nil when the
// caller tracks outcomes through the Request handles alone.
func (c *Channel) SubmitPacking(remote int, cq *CQ) (*AsyncMsg, error) {
	return c.SubmitPackingFrom(remote, cq, 0)
}

// SubmitPackingFrom is SubmitPacking with an explicit causality floor: the
// conversation's virtual clock starts no earlier than `at`. A fresh
// conversation actor otherwise begins at time zero and syncs only to the
// lease-grant stamp, so a send that logically depends on earlier work (a
// collective step forwarding data it just received) would be timed as if
// it had started at the beginning of the run. Passing the issuing actor's
// Now() keeps dependent steps causally ordered in virtual time.
func (c *Channel) SubmitPackingFrom(remote int, cq *CQ, at vclock.Time) (*AsyncMsg, error) {
	cs, err := c.conn(remote)
	if err != nil {
		return nil, err
	}
	am := &AsyncMsg{ch: c, cq: cq, sending: true, actor: vclock.MakeActor(cs.asyncName)}
	// Floor before the grant can run: the conversation is not runnable
	// until then, so the actor has exactly one owner here.
	am.actor.Sync(at)
	am.conn.cs = cs
	if !cs.send.acquireAsync(&am.park, (*leaseWaiter)(am)) {
		c.met.parked.Add(1)
	}
	return am, nil
}

// SubmitUnpacking opens an asynchronous receive conversation: the
// non-blocking analog of BeginUnpacking. The conversation is bound to the
// next unclaimed incoming message announcement (in registration order
// among all receivers); its receive lease is then acquired through the
// same FIFO as sync receivers. If the channel closes before a message
// arrives, the conversation fails with ErrClosed: its first pending
// operation completes with ErrClosed and the rest with ErrBadState.
func (c *Channel) SubmitUnpacking(cq *CQ) *AsyncMsg {
	return c.SubmitUnpackingFrom(cq, 0)
}

// SubmitUnpackingFrom is SubmitUnpacking with an explicit causality floor
// on the conversation's virtual clock (see SubmitPackingFrom).
func (c *Channel) SubmitUnpackingFrom(cq *CQ, at vclock.Time) *AsyncMsg {
	am := &AsyncMsg{ch: c, cq: cq, actor: vclock.MakeActor(c.asyncName)}
	am.actor.Sync(at)
	c.ann.PopAsync(&am.park, (*announcee)(am))
	return am
}

// announcee and leaseWaiter are an AsyncMsg's two simnet.Waiter faces: a
// receive conversation waiting on its channel's announcements, and any
// conversation waiting on a direction lease. Converting the pointer
// allocates nothing, and the conversation waits on one queue at a time, in
// its park slot.
type (
	announcee   AsyncMsg
	leaseWaiter AsyncMsg
)

// Ready binds a receive conversation to an incoming message and requests
// that connection's receive lease. It runs once, on the goroutine that
// announced, registered (a rank was queued) or closed (ok = false).
func (w *announcee) Ready(remote int, ok bool) {
	am := (*AsyncMsg)(w)
	if !ok {
		am.fail(ErrClosed)
		return
	}
	cs, err := am.ch.conn(remote)
	if err != nil {
		am.fail(err)
		return
	}
	am.conn.cs = cs
	if !cs.recv.acquireAsync(&am.park, (*leaseWaiter)(am)) {
		am.ch.met.parked.Add(1)
	}
}

// Ready makes the conversation the holder of its direction lease, stamped
// t (ok is always true: a lease queue is never closed): it opens the
// connection and schedules the conversation if operations are already
// waiting. It runs on the granting goroutine (the submitter when
// uncontended, the releasing holder otherwise) — the conversation is not
// runnable before it, so there is no racing worker.
func (w *leaseWaiter) Ready(t vclock.Time, _ bool) {
	am := (*AsyncMsg)(w)
	am.actor.Sync(t)
	cn := &am.conn
	cn.actor, cn.sending, cn.open = &am.actor, am.sending, true
	if am.sending {
		cn.cs.sendMsg = &cn.msg
	}
	am.mu.Lock()
	am.ready = true
	run := am.pending.n > 0 && !am.queued && !am.dead
	if run {
		am.queued = true
	}
	am.mu.Unlock()
	if run {
		am.ch.sess.eng.enqueue(am)
	}
}

// SubmitPack submits one outgoing block (async mad_pack). The data must
// stay valid until the operation completes; modes have their sync
// semantics. The returned request completes on the conversation's CQ.
func (am *AsyncMsg) SubmitPack(data []byte, sm SendMode, rm RecvMode) *Request {
	return am.submit(OpPack, data, sm, rm)
}

// SubmitUnpack submits one destination block (async mad_unpack); dst is
// filled by the time the operation completes.
func (am *AsyncMsg) SubmitUnpack(dst []byte, sm SendMode, rm RecvMode) *Request {
	return am.submit(OpUnpack, dst, sm, rm)
}

// SubmitEnd finalizes the conversation (async mad_end_packing /
// mad_end_unpacking): once every prior operation has executed, delayed
// blocks are flushed (send) or deferred extractions completed (receive)
// and the direction lease is released. The End completion is the
// conversation's last; operations submitted after it complete with
// ErrBadState.
func (am *AsyncMsg) SubmitEnd() *Request {
	return am.submit(OpEnd, nil, SendCheaper, ReceiveCheaper)
}

func (am *AsyncMsg) submit(k OpKind, buf []byte, sm SendMode, rm RecvMode) *Request {
	am.ch.stats.asyncSubmitted.Add(1)
	am.mu.Lock()
	am.seq++
	// A slot is used once, by the one operation with its sequence number,
	// so a handle never comes to mean a different operation.
	var r *Request
	if am.seq <= inlineOps {
		r = &am.inline[am.seq-1]
	} else {
		r = new(Request)
	}
	r.am, r.seq, r.kind, r.buf, r.n, r.sm, r.rm = am, uint64(am.seq), uint8(k), buf, len(buf), sm, rm
	if am.dead {
		// The conversation is over; completing inline (under the lock, so
		// the completion cannot overtake the drain that killed the
		// conversation) preserves delivery order.
		am.deliver(r, ErrBadState, am.timeLocked())
		am.mu.Unlock()
		return r
	}
	am.pending.push(r)
	run := am.ready && !am.queued
	if run {
		am.queued = true
	}
	am.mu.Unlock()
	if run {
		am.ch.sess.eng.enqueue(am)
	}
	return r
}

// timeLocked reports the conversation clock for inline completions.
func (am *AsyncMsg) timeLocked() vclock.Time {
	if am.ready {
		return am.actor.Now()
	}
	return 0
}

// deliver completes one request, already off the pending FIFO: it stores
// the outcome, the request transitions to done (unless discarded) and the
// conversation CQ, if any, receives it. Error-path callers hold am.mu so
// ordering with the killing drain is preserved; the draining worker calls
// it unlocked (it is the conversation's only executor).
func (am *AsyncMsg) deliver(r *Request, err error, t vclock.Time) {
	am.ch.stats.asyncCompleted.Add(1)
	if err != nil {
		am.ch.stats.asyncErrors.Add(1)
	}
	r.buf, r.err, r.time = nil, err, t
	if !r.st.CompareAndSwap(reqPending, reqDone) {
		return // discarded: suppress CQ delivery
	}
	if am.cq != nil {
		if depth := am.cq.post(r); depth > 0 {
			am.ch.met.cqDepth.SetMax(int64(depth))
		}
	}
}

// failPendingLocked completes every operation still pending on a dead
// conversation, in submission order: the first with err, the rest with
// ErrBadState. Caller holds am.mu.
func (am *AsyncMsg) failPendingLocked(err error) {
	t := am.timeLocked()
	for r := am.pending.pop(); r != nil; r = am.pending.pop() {
		am.deliver(r, err, t)
		err = ErrBadState
	}
}

// fail kills a conversation that never got a connection bound (channel
// closed before an announcement, misconfigured peer): the first pending
// operation completes with err, the rest with ErrBadState, preserving the
// sync API's abort contract shape. Later submissions complete with
// ErrBadState inline.
func (am *AsyncMsg) fail(err error) {
	am.mu.Lock()
	defer am.mu.Unlock()
	am.dead = true
	am.err = err
	am.failPendingLocked(err)
}

// progress engine ------------------------------------------------------

// DefaultWorkers is the progress-engine pool size when SessionSpec.Workers
// is zero.
const DefaultWorkers = 8

// engine is the session's progress engine: a bounded worker pool draining
// runnable conversations. Send conversations are preferred over receive
// ones, and the number of concurrently executing receive conversations is
// capped below the pool size (max(1, workers/8) are withheld), so
// receive-side operations that block inside a TM waiting for wire data can
// never occupy every worker — the senders they wait for always find one.
type engine struct {
	sess    *Session
	workers int
	recvCap int

	// Always-on scheduler gauges, resolved from the session registry when
	// the workers start (the registry may not exist yet when the engine is
	// built).
	gRunq *metrics.Gauge
	gOcc  *metrics.Gauge

	// live counts conversations queued or being drained: up at enqueue,
	// down in drain before the completion that ends the message is posted,
	// so a caller that has collected every End completion reads zero.
	live atomic.Int64

	mu         sync.Mutex
	cond       *sync.Cond
	sendq      fifo[AsyncMsg, *AsyncMsg]
	recvq      fifo[AsyncMsg, *AsyncMsg]
	recvActive int
	busy       int
	started    bool
	stopped    bool
}

func newEngine(s *Session, spec SessionSpec) *engine {
	workers := spec.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	recvCap := max(1, workers-max(1, workers/8))
	e := &engine{sess: s, workers: workers, recvCap: recvCap}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// enqueue schedules a runnable conversation, starting the worker pool on
// first use so pure-sync sessions never spawn it.
func (e *engine) enqueue(am *AsyncMsg) {
	e.live.Add(1)
	e.mu.Lock()
	if !e.started {
		e.started = true
		reg := e.sess.Metrics()
		e.gRunq, e.gOcc = reg.Gauge("async/runq-max"), reg.Gauge("async/occupancy-max")
		for i := 0; i < e.workers && !e.stopped; i++ {
			go e.worker()
		}
	}
	if am.sending {
		e.sendq.push(am)
	} else {
		e.recvq.push(am)
	}
	depth := int64(e.sendq.n + e.recvq.n)
	e.mu.Unlock()
	e.cond.Broadcast()
	e.gRunq.SetMax(depth)
}

func (e *engine) worker() {
	e.mu.Lock()
	for {
		var am *AsyncMsg
		for {
			if e.stopped {
				e.mu.Unlock()
				return
			}
			if am = e.sendq.pop(); am != nil {
				break
			}
			if e.recvActive < e.recvCap {
				if am = e.recvq.pop(); am != nil {
					e.recvActive++
					break
				}
			}
			e.cond.Wait()
		}
		e.busy++
		occ := int64(e.busy)
		e.mu.Unlock()
		e.gOcc.SetMax(occ)

		isRecv := !am.sending
		e.drain(am)

		e.mu.Lock()
		e.busy--
		if isRecv {
			e.recvActive--
		}
		e.cond.Broadcast()
	}
}

// drain executes a conversation's pending requests FIFO until the list
// empties or the message ends. The conversation is exclusively this
// worker's while queued; completions are posted in submission order.
func (e *engine) drain(am *AsyncMsg) {
	cn := &am.conn
	t0 := cn.actor.Now()
	ran := false
	for {
		am.mu.Lock()
		r := am.pending.pop()
		if r == nil {
			am.queued = false
			e.live.Add(-1)
			am.mu.Unlock()
			break
		}
		am.mu.Unlock()

		ran = true
		err := cn.exec(r)
		if !cn.open {
			// The message ended: a successful (or failed) End, or an abort
			// by a failed Pack/Unpack — the executor already released the
			// lease per the sync contract. Everything still pending (and
			// everything submitted later) completes with ErrBadState.
			am.mu.Lock()
			am.dead = true
			if err != nil && am.err == nil {
				am.err = err
			}
			am.queued = false
			e.live.Add(-1)
			am.deliver(r, err, cn.actor.Now())
			am.failPendingLocked(ErrBadState)
			am.mu.Unlock()
			break
		}
		am.deliver(r, err, cn.actor.Now())
	}
	if ran {
		am.ch.span(cn.actor, t0, am.ch.lbl.drain)
	}
}

// stop shuts the worker pool down. Conversations still queued stop making
// progress; call it only once every outstanding completion has been
// collected.
func (e *engine) stop() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
	e.cond.Broadcast()
}
