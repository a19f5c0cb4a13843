package core

import (
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Channel is a closed world of communication (§2.1): a network interface,
// an adapter, and one reliable in-order connection per member pair.
// Communication on one channel never interferes with another channel, and
// in-order delivery is guaranteed per point-to-point connection within a
// channel.
//
// A channel is safe for concurrent use: many actors may drive disjoint
// connections simultaneously, and one connection supports a concurrent
// send and receive (full duplex). Exclusive ownership of a connection
// direction is taken per message through the direction's lease — see
// BeginPacking/BeginUnpacking, or their scoped forms Send/Recv.
type Channel struct {
	sess    *Session
	name    string
	id      int
	rank    int
	pmm     PMM
	obs     *Observer  // session observer at creation time; nil = unobserved
	lbl     spanLabels // built with the channel when observed; zero otherwise
	members []int

	// asyncName names the actor of every async receive conversation; like
	// ConnState.asyncName it is formatted once, when the channel is made.
	asyncName string

	// ann carries message-start notifications: one rank per message,
	// announced by the sender's first wire operation. It models the
	// receive side's "poll every connection, serve the first that fires"
	// loop with no goroutine behind it: sync receivers and async receive
	// conversations wait in its one FIFO, and each rank goes to the oldest.
	ann simnet.Queue[int]

	conns map[int]*ConnState
	stats chanStats
	met   chanMetrics // always-on registry handles, cached at creation
}

// Name reports the channel's session-wide name.
func (c *Channel) Name() string { return c.name }

// Close shuts the channel's receive side down: a blocked or future
// BeginUnpacking returns ErrClosed once pending messages drain, and a
// peer's Pack/EndPacking toward this channel reports ErrClosed instead of
// silently dropping traffic. A receive conversation still waiting for a
// message fails with ErrClosed on the closing goroutine, which therefore
// runs its CQ callback. Used by layers that run receiver daemons over a
// channel (forwarding, MPI, Nexus). Idempotent.
func (c *Channel) Close() { c.ann.Close() }

// Rank reports the local process rank.
func (c *Channel) Rank() int { return c.rank }

// Session returns the session the channel was created on; layers built
// over a bare channel handle (collectives, MPI) reach the session's
// metrics registry and observer through it.
func (c *Channel) Session() *Session { return c.sess }

// Members lists the channel's member ranks.
func (c *Channel) Members() []int { return append([]int(nil), c.members...) }

// PMMName reports the protocol module driving the channel.
func (c *Channel) PMMName() string { return c.pmm.Name() }

// Link summarizes the channel's one-way cost for n-byte blocks;
// reports and the forwarding arbiter use it.
func (c *Channel) Link(n int) model.Link { return linkOf(c.pmm, n) }

// linkOf is a module's link: that of the TM Select picks for CHEAPER.
func linkOf(p PMM, n int) model.Link { return p.Select(n, SendCheaper, ReceiveCheaper).Link(n) }

// conn resolves the connection state toward a member rank.
func (c *Channel) conn(remote int) (*ConnState, error) {
	cs := c.conns[remote]
	if cs == nil {
		return nil, fmt.Errorf("core: channel %q has no connection %d->%d", c.name, c.rank, remote)
	}
	return cs, nil
}

// lease is the exclusive-ownership token of one connection direction: a
// one-token simnet.Queue whose token is the last holder's release stamp.
// An actor acquires it for the span of one message (Begin… to End…); a
// contended acquisition parks FIFO until the current holder releases and
// then synchronizes the acquirer's virtual clock to the release time —
// waiting costs virtual time, not wall-clock lock order. Uncontended
// single-actor flows are unchanged: an actor re-acquiring its own release
// stamp never moves its clock.
//
// The async submission path never parks an engine worker on a lease:
// acquireAsync parks the conversation itself, and the releasing goroutine
// grants it when ownership transfers. Sync and async acquirers share the
// queue's one FIFO, so a mixed workload keeps the same per-direction
// fairness as the pure-sync library.
type lease struct{ q *simnet.Queue[vclock.Time] }

func newLease() lease {
	l := lease{simnet.NewQueue[vclock.Time]()}
	l.q.Push(0)
	return l
}

// acquire blocks until the lease is free and syncs a to the release stamp.
func (l lease) acquire(a *vclock.Actor) {
	t, _ := l.q.Pop() // a lease queue is never closed
	a.Sync(t)
}

// acquireAsync takes the lease without blocking: w.Ready runs inline when
// the lease is free (the result is true), otherwise w parks in s and runs
// on the releasing goroutine at ownership transfer.
func (l lease) acquireAsync(s *simnet.Slot, w simnet.Waiter[vclock.Time]) bool {
	return l.q.PopAsync(s, w)
}

// release hands the lease back, stamped with the holder's current time:
// straight to the oldest parked acquirer when there is one, so the lease
// never goes free in between.
func (l lease) release(a *vclock.Actor) { l.q.Push(a.Now()) }

// state reports whether the lease is held and how many acquirers are
// parked behind the holder.
func (l lease) state() (held bool, parked int) { return l.q.Len() == 0, l.q.Waiting() }

// msgState is the per-message mutable state of one in-flight message: the
// Switch step's current TM plus the announce/packed latches. It is owned
// by the message's Connection, so concurrent messages on one channel
// cannot corrupt each other: the two directions of a connection have
// separate handles, and one direction carries one message at a time.
type msgState struct {
	tm        TM // current Switch-step TM (nil before the first block)
	announced bool
	packed    bool
}

// ConnState is the per-(channel, peer) connection state shared by both
// directions. It holds only long-lived resources — the BMM instances and
// the protocol module's private resources — each guarded by the owning
// direction's lease: send-path TM methods run under the send lease,
// receive-path methods under the receive lease, and the two never share
// mutable fields (full duplex).
type ConnState struct {
	ch     *Channel
	peer   *Channel // remote's instance of ch, fixed at NewChannel
	local  int
	remote int

	// asyncName names the actor of every async send conversation toward
	// remote.
	asyncName string

	// Per-direction leases: exclusive ownership of a direction for the
	// span of one message.
	send lease
	recv lease

	// Long-lived BMM instances, lazily created; sBMMs is guarded by the
	// send lease, rBMMs by the receive lease.
	sBMMs map[TM]BMM
	rBMMs map[TM]BMM

	// Idle outgoing static buffers, per StaticTM that owns its own;
	// lazily created, guarded by the send lease.
	sFree map[*StaticTM]*freeList

	// sendMsg is the send-lease holder's message while it is in
	// construction: where Announce finds its latch. Written only under the
	// send lease.
	sendMsg *msgState

	// sconn and rconn are the slots Send and Recv lend f, written only by
	// the holder of their direction's lease and closed between scopes.
	sconn, rconn Connection

	// Priv holds the protocol module's per-connection resources. The
	// module must partition it by direction: send-path methods
	// (SendBuffer, ObtainStaticBuffer, …) and receive-path methods
	// (ReceiveBuffer, ReleaseStaticBuffer, …) may not mutate shared
	// fields, because a send and a receive can run concurrently.
	Priv any
}

// Channel returns the owning channel.
func (cs *ConnState) Channel() *Channel { return cs.ch }

// Local reports the local rank; Remote the peer rank.
func (cs *ConnState) Local() int  { return cs.local }
func (cs *ConnState) Remote() int { return cs.remote }

// Announce notifies the peer's channel of a new incoming message. Core
// calls it before a message's first wire operation; a second call, or one
// on a connection with no message (a rail's sub-connection), is a no-op.
// It models the receiver's polling loop seeing the first packet, so it
// costs no wire time. It returns ErrClosed when the peer has shut its
// receive side down, threaded back through Pack/EndPacking.
func (cs *ConnState) Announce() error {
	m := cs.sendMsg
	if m == nil || m.announced {
		return nil
	}
	if !cs.peer.ann.PushIfOpen(cs.local) {
		return fmt.Errorf("core: channel %q on rank %d: %w", cs.ch.name, cs.remote, ErrClosed)
	}
	m.announced = true
	return nil
}

// staticBufs returns (creating lazily) t's free list on this connection.
// Called only under the send lease.
func (cs *ConnState) staticBufs(t *StaticTM) *freeList {
	f := cs.sFree[t]
	if f == nil {
		if cs.sFree == nil {
			cs.sFree = make(map[*StaticTM]*freeList)
		}
		f = new(freeList)
		cs.sFree[t] = f
	}
	return f
}

// leftovers lists what the connection still holds between messages, one
// line per finding: a held or awaited direction lease, an open send
// message, static buffers obtained and not sent. Its caller guarantees no
// message is in flight (Session.CheckQuiescent).
func (cs *ConnState) leftovers() []string {
	where := fmt.Sprintf("channel %q %d->%d", cs.ch.name, cs.local, cs.remote)
	var out []string
	for _, d := range [...]struct {
		dir string
		l   lease
	}{{"send", cs.send}, {"receive", cs.recv}} {
		held, parked := d.l.state()
		if held {
			out = append(out, fmt.Sprintf("%s %s: lease held", where, d.dir))
		}
		if parked > 0 {
			out = append(out, fmt.Sprintf("%s %s: %d acquirers parked on the lease", where, d.dir, parked))
		}
	}
	if cs.sendMsg != nil {
		out = append(out, where+" send: message open")
	}
	for _, tm := range cs.ch.pmm.TMs() {
		t, _ := tm.(*StaticTM)
		if f := cs.sFree[t]; f != nil && f.out != 0 {
			out = append(out, fmt.Sprintf("%s send: %d %s buffers obtained and not sent", where, f.out, t.Name()))
		}
	}
	return out
}

// Connection is one in-construction (or in-extraction) message on one
// connection and owns its mutable state. BeginPacking/BeginUnpacking return
// a heap handle per message, holding the direction's lease until End… or
// an abort; Send/Recv lend f a ConnState slot instead (see Send). A
// Connection belongs to the actor that began it and is not itself safe for
// concurrent use.
type Connection struct {
	cs      *ConnState
	actor   *vclock.Actor
	sending bool
	open    bool
	scoped  bool // a ConnState slot: its Send/Recv scope releases the lease
	msg     msgState
}

// Remote reports the peer rank of the connection.
func (cn *Connection) Remote() int { return cn.cs.remote }

// Actor exposes the thread-of-control clock driving the connection.
func (cn *Connection) Actor() *vclock.Actor { return cn.actor }

// Channel returns the owning channel.
func (cn *Connection) Channel() *Channel { return cn.cs.ch }

// BeginPacking initiates a new message toward remote on the channel
// (mad_begin_packing). The actor is the calling thread's virtual clock.
// It acquires the connection's send lease, blocking in virtual time while
// another actor has a message toward the same remote in construction; the
// lease is released by EndPacking (on every path, even error) or by a
// failed Pack, which aborts the message.
func (c *Channel) BeginPacking(a *vclock.Actor, remote int) (*Connection, error) {
	cs, err := c.acquireSend(a, remote)
	if err != nil {
		return nil, err
	}
	cn := &Connection{cs: cs, actor: a, sending: true, open: true}
	cs.sendMsg = &cn.msg
	return cn, nil
}

// acquireSend resolves the connection toward remote and takes its send
// lease: the first step of BeginPacking and Send.
func (c *Channel) acquireSend(a *vclock.Actor, remote int) (*ConnState, error) {
	cs, err := c.conn(remote)
	if err != nil {
		return nil, err
	}
	c.takeLease(a, cs.send, c.lbl.leaseSend)
	return cs, nil
}

// acquireRecv claims the next incoming-message announcement and takes that
// connection's receive lease: the first step of BeginUnpacking and Recv.
func (c *Channel) acquireRecv(a *vclock.Actor) (*ConnState, error) {
	remote, ok := c.ann.Pop()
	if !ok {
		return nil, ErrClosed
	}
	cs, err := c.conn(remote)
	if err != nil {
		return nil, err
	}
	c.takeLease(a, cs.recv, c.lbl.leaseRecv)
	return cs, nil
}

// takeLease acquires a direction lease for a; a contended wait is the
// full-duplex path's queueing delay, shown on the observer's timeline.
func (c *Channel) takeLease(a *vclock.Actor, l lease, label string) {
	t0 := a.Now()
	l.acquire(a)
	if a.Now() > t0 {
		c.span(a, t0, label)
	}
}

// bmm returns (creating lazily) the connection's BMM instance for tm in
// the message's direction, guarded by that direction's lease.
func (cn *Connection) bmm(tm TM) BMM {
	m := &cn.cs.rBMMs
	if cn.sending {
		m = &cn.cs.sBMMs
	}
	b := (*m)[tm]
	if b == nil {
		if *m == nil {
			*m = make(map[TM]BMM)
		}
		b = tm.NewBMM(cn.cs)
		(*m)[tm] = b
	}
	return b
}

// finish closes the message. One that ends with a current TM failed
// there, and that TM's BMM drops what the message still had delayed or
// deferred. A heap handle also releases the direction's lease; a slot's
// lease stays with its Send/Recv scope until f returns, so no other actor
// can reopen the slot while f still holds it.
func (cn *Connection) finish() {
	cn.open = false
	if cn.msg.tm != nil {
		cn.bmm(cn.msg.tm).discard()
		cn.msg.tm = nil
	}
	if cn.sending {
		cn.cs.sendMsg = nil
	}
	switch {
	case cn.scoped:
	case cn.sending:
		cn.cs.send.release(cn.actor)
	default:
		cn.cs.recv.release(cn.actor)
	}
}

// abort tears the in-flight message down after a failed Pack/Unpack: it
// closes the Connection and, for a heap handle, releases the direction's
// lease, so a failed message can never wedge the connection — the next
// Begin… proceeds and observes the underlying condition (e.g. ErrClosed)
// itself. A caller may therefore bail out on a Pack/Unpack error without
// calling End…; the matching End… on an aborted connection reports
// ErrBadState and touches neither the lease nor the stats.
func (cn *Connection) abort(err error) error {
	cn.finish()
	return err
}

// Pack appends one data block to the message (mad_pack). The block's
// length and mode combination steer the Switch step's TM selection; the
// matching Unpack must use the same length and modes (§2.2). On error the
// message is aborted: the connection is closed and the send lease released
// (a Send slot's when f returns), so the caller simply returns the error —
// a subsequent EndPacking is a no-op reporting ErrBadState. A mode outside
// Table 1 is such an error (*ModeError), found before the block is looked at.
//
// Pack, Unpack and the two End calls are the executors themselves: the
// synchronous caller runs them inline on its own actor, and the progress
// engine runs the same methods for submitted descriptors (execOp).
func (cn *Connection) Pack(data []byte, sm SendMode, rm RecvMode) error {
	if !cn.open || !cn.sending {
		return ErrBadState
	}
	if !inTable1(sm, rm) {
		return cn.abort(&ModeError{Op: "Pack", Send: sm, Recv: rm})
	}
	cs, m := cn.cs, &cn.msg
	tm := cs.ch.pmm.Select(len(data), sm, rm)
	// Switch step: changing TM flushes the previous BMM to keep the wire
	// order identical to the pack order (§4.1).
	if m.tm != nil && m.tm != tm {
		t0 := cn.actor.Now()
		err := cn.bmm(m.tm).Commit(cn.actor)
		cs.ch.spanTM(cn.actor, t0, spanCommit, m.tm)
		if err != nil {
			return cn.abort(err)
		}
		cs.ch.stats.commits.Add(1)
	}
	m.tm = tm
	m.packed = true
	cs.ch.stats.packed(tm, len(data))
	t0 := cn.actor.Now()
	cn.actor.Advance(model.MadPackCost)
	err := cn.bmm(tm).Pack(cn.actor, data, sm, rm)
	cs.ch.spanTM(cn.actor, t0, spanPack, tm)
	if err != nil {
		return cn.abort(err)
	}
	return nil
}

// EndPacking finalizes the message (mad_end_packing): every delayed block
// is flushed to the network. It always releases the send lease, so the
// error paths (empty message, commit failure) leave the connection ready
// for the next BeginPacking.
func (cn *Connection) EndPacking() error {
	if !cn.open || !cn.sending {
		return ErrBadState
	}
	cs, m := cn.cs, &cn.msg
	defer cn.finish()
	if !m.packed {
		return ErrEmptyMessage
	}
	if m.tm != nil {
		t0 := cn.actor.Now()
		err := cn.bmm(m.tm).Commit(cn.actor)
		cs.ch.spanTM(cn.actor, t0, spanCommit, m.tm)
		if err != nil {
			return err
		}
		m.tm = nil
	}
	if !m.announced {
		// No block reached a TM send, so the peer was never told of the
		// message: only empty blocks, which the static-copy BMM skips.
		return fmt.Errorf("core: message finished without wire traffic on %s", cs.ch.name)
	}
	cs.ch.stats.messagesOut.Add(1)
	return nil
}

// BeginUnpacking starts the extraction of the first incoming message on
// the channel (mad_begin_unpacking) and returns its connection. It blocks
// until a message announcement arrives, then acquires the announced
// connection's receive lease. A closed channel reports exactly ErrClosed
// once pending messages drain, whether the call was already blocked when
// Close ran or issued afterwards.
func (c *Channel) BeginUnpacking(a *vclock.Actor) (*Connection, error) {
	cs, err := c.acquireRecv(a)
	if err != nil {
		return nil, err
	}
	return &Connection{cs: cs, actor: a, open: true}, nil
}

// Unpack extracts one data block into dst (mad_unpack). Length and modes
// must mirror the sender's Pack exactly. On error the message is aborted,
// mirroring the Pack contract (a *ModeError included), so the caller
// returns the error without EndUnpacking.
func (cn *Connection) Unpack(dst []byte, sm SendMode, rm RecvMode) error {
	if !cn.open || cn.sending {
		return ErrBadState
	}
	if !inTable1(sm, rm) {
		return cn.abort(&ModeError{Op: "Unpack", Send: sm, Recv: rm})
	}
	cs, m := cn.cs, &cn.msg
	tm := cs.ch.pmm.Select(len(dst), sm, rm)
	if m.tm != nil && m.tm != tm {
		t0 := cn.actor.Now()
		err := cn.bmm(m.tm).Checkout(cn.actor)
		cs.ch.spanTM(cn.actor, t0, spanCheckout, m.tm)
		if err != nil {
			return cn.abort(err)
		}
		cs.ch.stats.checkouts.Add(1)
	}
	m.tm = tm
	cs.ch.stats.unpacked(len(dst))
	// The per-block extraction cost (model.MadUnpackCost) is charged by
	// the BMM when the block is actually extracted, so it lands after the
	// data's arrival for deferred (receive_CHEAPER) blocks too.
	t0 := cn.actor.Now()
	err := cn.bmm(tm).Unpack(cn.actor, dst, rm)
	cs.ch.spanTM(cn.actor, t0, spanUnpack, tm)
	if err != nil {
		return cn.abort(err)
	}
	return nil
}

// EndUnpacking finalizes the reception (mad_end_unpacking): every deferred
// block is extracted and available. It always releases the receive lease.
func (cn *Connection) EndUnpacking() error {
	if !cn.open || cn.sending {
		return ErrBadState
	}
	cs, m := cn.cs, &cn.msg
	defer cn.finish()
	if m.tm != nil {
		t0 := cn.actor.Now()
		err := cn.bmm(m.tm).Checkout(cn.actor)
		cs.ch.spanTM(cn.actor, t0, spanCheckout, m.tm)
		if err != nil {
			return err
		}
		m.tm = nil
	}
	cs.ch.stats.messagesIn.Add(1)
	return nil
}

// Send is the scoped form of a Table-1 send: it begins a message toward
// remote, runs f on it and ends it on every path, so f cannot leak the
// send lease. After a failed Pack the abort contract has already closed
// the connection and EndPacking is a no-op. f's error wins over
// EndPacking's.
//
// f runs on the connection's send slot, so a scoped message allocates no
// handle. The slot is valid only until f returns: Send holds the lease
// until then, even after an abort, and a handle kept past the scope
// reports ErrBadState.
func (c *Channel) Send(a *vclock.Actor, remote int, f func(*Connection) error) error {
	cs, err := c.acquireSend(a, remote)
	if err != nil {
		return err
	}
	cn := &cs.sconn
	*cn = Connection{cs: cs, actor: a, sending: true, open: true, scoped: true}
	cs.sendMsg = &cn.msg
	err = f(cn)
	if endErr := cn.EndPacking(); err == nil {
		err = endErr
	}
	cs.send.release(a)
	return err
}

// Recv is Send's receive dual: it begins the next incoming message, runs
// f on the connection's receive slot and ends it on every path, whatever
// f returns. The slot has Send's contract.
func (c *Channel) Recv(a *vclock.Actor, f func(*Connection) error) error {
	cs, err := c.acquireRecv(a)
	if err != nil {
		return err
	}
	cn := &cs.rconn
	*cn = Connection{cs: cs, actor: a, open: true, scoped: true}
	err = f(cn)
	if endErr := cn.EndUnpacking(); err == nil {
		err = endErr
	}
	cs.recv.release(a)
	return err
}

// UsesStatic reports whether n-byte CHEAPER blocks travel through a
// static-buffer transmission module on this channel; the forwarding layer
// uses it to decide whether a gateway hand-off can avoid its copy (§6.1).
func (c *Channel) UsesStatic(n int) bool {
	return c.pmm.Select(n, SendCheaper, ReceiveCheaper).StaticSize() > 0
}
