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

// Request is the caller's handle on one submitted operation. Every request
// must reach a completion queue (Poll/Wait/callback) or be explicitly
// Discarded — the reqpair vet check enforces this — so no outcome is ever
// silently dropped.
type Request struct {
	am   *AsyncMsg
	kind OpKind
	seq  uint64
	st   atomic.Uint32
	comp Completion
}

// Kind reports the request's operation kind; Seq its submission sequence
// number within the conversation.
func (r *Request) Kind() OpKind { return r.kind }
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
	return r.comp, true
}

// Err returns the completed operation's outcome; it reports nil while the
// operation is still pending (check Done first when that matters).
func (r *Request) Err() error {
	if c, ok := r.Completion(); ok {
		return c.Err
	}
	return nil
}

// Discard renounces the completion: if the operation has not completed
// yet, its completion is suppressed from the conversation's CQ (the
// request still transitions internally so the engine's bookkeeping stays
// exact). Discarding a completed request is a no-op. Use it for
// fire-and-forget submissions whose outcome the conversation's End
// completion subsumes.
func (r *Request) Discard() { r.st.CompareAndSwap(reqPending, reqDiscarded) }

// CQ is a completion queue. By default completions are buffered for
// Poll/Wait; OnCompletion switches the queue to callback delivery. A CQ
// may be shared by any number of conversations.
type CQ struct {
	q  *simnet.Queue[Completion]
	mu sync.Mutex
	cb func(Completion)
}

// NewCQ returns an empty completion queue in poll mode.
func NewCQ() *CQ { return &CQ{q: simnet.NewQueue[Completion]()} }

// Poll removes and returns the oldest buffered completion without
// blocking; ok is false when the queue is empty.
func (cq *CQ) Poll() (Completion, bool) { return cq.q.TryPop() }

// Wait blocks until a completion is available (or the queue is closed and
// drained, reporting ok = false).
func (cq *CQ) Wait() (Completion, bool) { return cq.q.Pop() }

// Len reports the number of buffered completions.
func (cq *CQ) Len() int { return cq.q.Len() }

// Close closes the queue: blocked and future Waits drain the remaining
// completions and then report ok = false; completions posted afterwards
// are dropped.
func (cq *CQ) Close() { cq.q.Close() }

// OnCompletion switches the queue to callback delivery: fn runs
// synchronously on the completing goroutine (an engine worker, usually)
// for every subsequent completion, which then does not reach Poll/Wait.
// The callback must be fast and must not submit to the completing
// conversation (it may submit to others). A nil fn reverts to poll mode.
func (cq *CQ) OnCompletion(fn func(Completion)) {
	cq.mu.Lock()
	cq.cb = fn
	cq.mu.Unlock()
}

func (cq *CQ) post(c Completion) {
	cq.mu.Lock()
	cb := cq.cb
	cq.mu.Unlock()
	if cb != nil {
		cb(c)
		return
	}
	cq.q.PushIfOpen(c)
}

// op is one queued operation descriptor. Descriptors are pooled: the
// engine recycles them at completion, so a steady submission load
// allocates only Request handles.
type op struct {
	kind OpKind
	buf  []byte
	sm   SendMode
	rm   RecvMode
	seq  uint64
	req  *Request
}

var opPool = sync.Pool{New: func() any { return new(op) }}

func getOp() *op { return opPool.Get().(*op) }

func putOp(o *op) {
	*o = op{} // drop the buffer and request references
	opPool.Put(o)
}

// execOp runs one descriptor on the connection with the connection's
// actor: the single-operation step of the progress engine, dispatching
// to the same Connection methods the synchronous API calls directly.
func (cn *Connection) execOp(o *op) error {
	switch o.kind {
	case OpPack:
		return cn.Pack(o.buf, o.sm, o.rm)
	case OpUnpack:
		return cn.Unpack(o.buf, o.sm, o.rm)
	case OpEnd:
		if cn.sending {
			return cn.EndPacking()
		}
		return cn.EndUnpacking()
	}
	panic(fmt.Sprintf("core: unknown op kind %d", int(o.kind)))
}

// AsyncMsg is one asynchronous conversation: the submission-path analog of
// the Connection returned by BeginPacking/BeginUnpacking. Operations
// submitted to it execute FIFO under the conversation's direction lease,
// and their completions are delivered to the conversation's CQ in
// submission order.
//
// Like a Connection, an AsyncMsg belongs to one submitting thread: Submit*
// calls must not race each other (completion handling — CQ draining,
// Request inspection — is free-threaded).
type AsyncMsg struct {
	ch *Channel
	cq *CQ
	e  *engine

	mu      sync.Mutex
	cn      *Connection // engine-owned; nil until the lease is granted
	ops     []*op       // submitted, not yet executed
	seq     uint64      // last assigned sequence number
	queued  bool        // on a run queue or being drained by a worker
	ready   bool        // lease held and connection bound — runnable
	dead    bool        // message finished or conversation aborted
	err     error       // first causal error when dead by failure
	sending bool
	remote  int // peer rank; receive conversations learn it at bind time
}

// Channel returns the owning channel.
func (am *AsyncMsg) Channel() *Channel { return am.ch }

// Sending reports the conversation's direction.
func (am *AsyncMsg) Sending() bool { return am.sending }

// Remote reports the peer rank; a receive conversation reports -1 until
// an incoming message has been bound to it.
func (am *AsyncMsg) Remote() int {
	am.mu.Lock()
	defer am.mu.Unlock()
	if !am.sending && am.cn == nil {
		return -1
	}
	return am.remote
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
	e := c.sess.eng
	am := &AsyncMsg{ch: c, cq: cq, e: e, sending: true, remote: remote}
	actor := vclock.NewActor(fmt.Sprintf("async:%s:%d>%d", c.name, c.rank, remote))
	// Floor before the grant callback can run: the conversation is not
	// runnable until bind, so the actor has exactly one owner here.
	if at > 0 {
		actor.Sync(at)
	}
	granted := cs.send.acquireAsync(func(t vclock.Time) {
		actor.Sync(t)
		cn := &Connection{cs: cs, actor: actor, sending: true, open: true}
		cs.sendMsg = &cn.msg
		am.bind(cn)
	})
	if !granted {
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
	e := c.sess.eng
	am := &AsyncMsg{ch: c, cq: cq, e: e, sending: false, remote: -1}
	actor := vclock.NewActor(fmt.Sprintf("async:%s:%d<", c.name, c.rank))
	if at > 0 {
		actor.Sync(at)
	}
	c.mux().register(func(remote int, ok bool) {
		if !ok {
			am.fail(ErrClosed)
			return
		}
		cs, err := c.conn(remote)
		if err != nil {
			am.fail(err)
			return
		}
		granted := cs.recv.acquireAsync(func(t vclock.Time) {
			actor.Sync(t)
			cn := &Connection{cs: cs, actor: actor, sending: false, open: true}
			am.mu.Lock()
			am.remote = remote
			am.mu.Unlock()
			am.bind(cn)
		})
		if !granted {
			c.met.parked.Add(1)
		}
	})
	return am
}

// bind installs the lease-holding connection and schedules the
// conversation if operations are already waiting. It runs on the granting
// goroutine (the submitter when uncontended, the releasing holder
// otherwise) — the conversation is not runnable before it, so there is no
// racing worker.
func (am *AsyncMsg) bind(cn *Connection) {
	am.mu.Lock()
	am.cn = cn
	am.ready = true
	run := len(am.ops) > 0 && !am.queued && !am.dead
	if run {
		am.queued = true
	}
	am.mu.Unlock()
	if run {
		am.e.enqueue(am)
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
	r := &Request{am: am, kind: k, seq: am.seq}
	if am.dead {
		// The conversation is over; completing inline (under the lock, so
		// the completion cannot overtake the drain that killed the
		// conversation) preserves delivery order.
		am.deliver(Completion{Req: r, Kind: k, Err: ErrBadState, Time: am.timeLocked(), Seq: am.seq, N: len(buf)})
		am.mu.Unlock()
		return r
	}
	o := getOp()
	o.kind, o.buf, o.sm, o.rm, o.seq, o.req = k, buf, sm, rm, am.seq, r
	am.ops = append(am.ops, o)
	run := am.ready && !am.queued
	if run {
		am.queued = true
	}
	am.mu.Unlock()
	if run {
		am.e.enqueue(am)
	}
	return r
}

// timeLocked reports the conversation clock for inline completions.
func (am *AsyncMsg) timeLocked() vclock.Time {
	if am.cn != nil {
		return am.cn.actor.Now()
	}
	return 0
}

// deliver posts one completion: the request transitions to done (unless
// discarded) and the conversation CQ, if any, receives the completion.
// Error-path callers hold am.mu so ordering with the killing drain is
// preserved; the draining worker calls it unlocked (it is the
// conversation's only executor).
func (am *AsyncMsg) deliver(c Completion) {
	am.ch.stats.asyncCompleted.Add(1)
	if c.Err != nil {
		am.ch.stats.asyncErrors.Add(1)
	}
	if r := c.Req; r != nil {
		r.comp = c
		if !r.st.CompareAndSwap(reqPending, reqDone) {
			return // discarded: suppress CQ delivery
		}
	}
	if am.cq != nil {
		am.cq.post(c)
		am.ch.met.cqDepth.SetMax(int64(am.cq.Len()))
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
	for i, o := range am.ops {
		e := err
		if i > 0 {
			e = ErrBadState
		}
		am.deliver(Completion{Req: o.req, Kind: o.kind, Err: e, Time: am.timeLocked(), Seq: o.seq, N: len(o.buf)})
		putOp(o)
	}
	am.ops = nil
}

// announcement fan-out -------------------------------------------------

// announceMux owns a channel's incoming-announcement queue once any
// receiver is asynchronous: it pops announcements and hands each to
// exactly one registered receiver (sync BeginUnpacking callers and async
// conversations share one FIFO, in registration order).
type announceMux struct {
	mu       sync.Mutex
	buffered []int
	waiters  []func(remote int, ok bool)
	closed   bool
}

func (m *announceMux) run(q *simnet.Queue[int]) {
	for {
		r, ok := q.Pop()
		if !ok {
			m.mu.Lock()
			m.closed = true
			ws := m.waiters
			m.waiters = nil
			m.mu.Unlock()
			for _, w := range ws {
				w(0, false)
			}
			return
		}
		m.mu.Lock()
		if len(m.waiters) > 0 {
			w := m.waiters[0]
			m.waiters = m.waiters[1:]
			m.mu.Unlock()
			w(r, true)
			continue
		}
		m.buffered = append(m.buffered, r)
		m.mu.Unlock()
	}
}

// register enrolls one receiver for the next unclaimed announcement; fn
// runs inline when one is already buffered (or the channel is closed).
func (m *announceMux) register(fn func(remote int, ok bool)) {
	m.mu.Lock()
	if len(m.buffered) > 0 {
		r := m.buffered[0]
		m.buffered = m.buffered[1:]
		m.mu.Unlock()
		fn(r, true)
		return
	}
	if m.closed {
		m.mu.Unlock()
		fn(0, false)
		return
	}
	m.waiters = append(m.waiters, fn)
	m.mu.Unlock()
}

// mux returns the channel's announcement fan-out, starting it on first
// use. Pure-sync channels never start one: BeginUnpacking pops the
// incoming queue directly until a mux exists.
func (c *Channel) mux() *announceMux {
	c.amu.Lock()
	defer c.amu.Unlock()
	if c.amux == nil {
		c.amux = &announceMux{}
		go c.amux.run(c.incoming)
	}
	return c.amux
}

// nextAnnouncement claims the channel's next incoming-message
// announcement for a synchronous receiver.
func (c *Channel) nextAnnouncement() (int, bool) {
	c.amu.Lock()
	m := c.amux
	c.amu.Unlock()
	if m == nil {
		return c.incoming.Pop()
	}
	type ann struct {
		remote int
		ok     bool
	}
	ch := make(chan ann, 1)
	m.register(func(remote int, ok bool) { ch <- ann{remote, ok} })
	a := <-ch
	return a.remote, a.ok
}

// progress engine ------------------------------------------------------

// DefaultWorkers is the progress-engine pool size when SessionSpec.Workers
// is zero.
const DefaultWorkers = 8

// engine is the session's progress engine: a bounded worker pool draining
// runnable conversations. Send conversations are preferred over receive
// ones, and the number of concurrently executing receive conversations is
// capped below the pool size (SessionSpec.RecvReserve), so receive-side
// operations that block inside a TM waiting for wire data can never
// occupy every worker — the senders they wait for always find one.
type engine struct {
	sess    *Session
	workers int
	recvCap int

	// Always-on scheduler gauges, resolved from the session registry on
	// first use (the registry may not exist yet when the engine is built).
	gOnce sync.Once
	gRunq *metrics.Gauge
	gOcc  *metrics.Gauge

	mu         sync.Mutex
	cond       *sync.Cond
	sendq      []*AsyncMsg
	recvq      []*AsyncMsg
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
	reserve := spec.RecvReserve
	if reserve <= 0 {
		reserve = max(1, workers/8)
	}
	recvCap := workers - reserve
	if recvCap < 1 {
		recvCap = 1
	}
	e := &engine{sess: s, workers: workers, recvCap: recvCap}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// gauges resolves the scheduler's high-water gauges once.
func (e *engine) gauges() {
	e.gOnce.Do(func() {
		reg := e.sess.Metrics()
		e.gRunq = reg.Gauge("async/runq-max")
		e.gOcc = reg.Gauge("async/occupancy-max")
	})
}

// enqueue schedules a runnable conversation, starting the worker pool on
// first use so pure-sync sessions never spawn it.
func (e *engine) enqueue(am *AsyncMsg) {
	e.mu.Lock()
	if !e.started && !e.stopped {
		e.started = true
		for i := 0; i < e.workers; i++ {
			go e.worker()
		}
	}
	if am.sending {
		e.sendq = append(e.sendq, am)
	} else {
		e.recvq = append(e.recvq, am)
	}
	depth := int64(len(e.sendq) + len(e.recvq))
	e.mu.Unlock()
	e.cond.Broadcast()
	e.gauges()
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
			if len(e.sendq) > 0 {
				am = e.sendq[0]
				e.sendq = e.sendq[1:]
				break
			}
			if len(e.recvq) > 0 && e.recvActive < e.recvCap {
				am = e.recvq[0]
				e.recvq = e.recvq[1:]
				e.recvActive++
				break
			}
			e.cond.Wait()
		}
		e.busy++
		occ := int64(e.busy)
		e.mu.Unlock()
		e.gauges()
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

// drain executes a conversation's queued descriptors FIFO until the queue
// empties or the message ends. The conversation is exclusively this
// worker's while queued; completions are posted in submission order.
func (e *engine) drain(am *AsyncMsg) {
	cn := am.cn
	t0 := cn.actor.Now()
	ran := false
	for {
		am.mu.Lock()
		if am.dead {
			e.drainDeadLocked(am)
			am.queued = false
			am.mu.Unlock()
			break
		}
		if len(am.ops) == 0 {
			am.queued = false
			am.mu.Unlock()
			break
		}
		o := am.ops[0]
		am.ops = am.ops[1:]
		am.mu.Unlock()

		ran = true
		err := cn.execOp(o)
		comp := Completion{Req: o.req, Kind: o.kind, Err: err, Time: cn.actor.Now(), Seq: o.seq, N: len(o.buf)}
		if !cn.open {
			// The message ended: a successful (or failed) End, or an abort
			// by a failed Pack/Unpack — the executor already released the
			// lease per the sync contract. Everything still queued (and
			// everything submitted later) completes with ErrBadState.
			am.mu.Lock()
			am.dead = true
			if err != nil && am.err == nil {
				am.err = err
			}
			am.deliver(comp)
			putOp(o)
			e.drainDeadLocked(am)
			am.queued = false
			am.mu.Unlock()
			break
		}
		am.deliver(comp)
		putOp(o)
	}
	if ran {
		am.ch.span(cn.actor, t0, am.ch.lbl.drain)
	}
}

// drainDeadLocked fails every still-queued descriptor of a dead
// conversation with ErrBadState, in submission order. Caller holds am.mu.
func (e *engine) drainDeadLocked(am *AsyncMsg) {
	for _, o := range am.ops {
		am.deliver(Completion{Req: o.req, Kind: o.kind, Err: ErrBadState, Time: am.timeLocked(), Seq: o.seq, N: len(o.buf)})
		putOp(o)
	}
	am.ops = nil
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
