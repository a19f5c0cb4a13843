package coll

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"sync"

	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/metrics"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
)

// SizeError reports a collective block whose length disagrees with the
// local schedule — the classic silent-corruption bug (a rank contributing
// a short or long block scribbling over its neighbours' slots in the
// root's output) surfaced as a typed, matchable error instead.
type SizeError struct {
	Source int // communicator rank the block came from
	Got    int // bytes the peer sent
	Want   int // bytes the schedule expects
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("coll: rank %d sent %d bytes where the schedule expects %d", e.Source, e.Got, e.Want)
}

// Options configures a communicator.
type Options struct {
	// Alg selects the schedule family (default Auto: topology-aware).
	Alg Algorithm
	// Topo overrides the derived topology. Nil derives it: a bare channel
	// is one cluster, a virtual channel contributes its segment map.
	Topo *Topology
	// Name labels the communicator's trace spans (default: channel name).
	Name string
}

// Comm is one rank's collective communicator. Every member must call the
// same collectives in the same order with coherent arguments; calls on
// one Comm must not overlap. After any error the communicator is poisoned
// (the ranks no longer agree on the collective sequence) and every later
// call reports the original failure.
type Comm struct {
	Ops   // the collectives, run by this Comm as their executor (eventExec)
	t     *transport
	actor *vclock.Actor
	nodes []int // communicator rank -> node id on the underlying channel
	name  string
	rec   *trace.Recorder
	met   collMet

	traceBase uint64
	seq       uint32
	err       error

	// The running call's executor state, kept between calls and reset by
	// run, so a call allocates none of it.
	op       string
	recvLeft []int            // per round: receives not yet matched
	deferred [][]deferredFold // per round: folds that arrived ahead of it
	replay   []event          // banked messages of this call
	curRound int
	sendsOut int

	mu     sync.Mutex
	curSeq uint32
	exps   map[expKey]*exp
	expBuf []exp // exps' values, sized before any pointer into it is taken
	future []event
	spare  spares
}

type collMet struct {
	ops, errors, msgsOut, msgsIn, bytesOut, bytesIn, claimed *metrics.Counter
}

type expKey struct {
	origin int
	tag    int
}

// exp is one registered receive expectation of the running collective.
type exp struct {
	x       Xfer
	round   int
	sink    []byte // claim target; nil lands the payload in a spare
	claimed bool   // under Comm.mu
	matched bool   // executor only
}

func collMetrics(reg *metrics.Registry) collMet {
	return collMet{
		ops:      reg.Counter("coll/ops"),
		errors:   reg.Counter("coll/errors"),
		msgsOut:  reg.Counter("coll/msgs-out"),
		msgsIn:   reg.Counter("coll/msgs-in"),
		bytesOut: reg.Counter("coll/bytes-out"),
		bytesIn:  reg.Counter("coll/bytes-in"),
		claimed:  reg.Counter("coll/claimed"),
	}
}

// OverChannel builds a communicator over a plain madeleine channel. Its
// transfers are scoped messages on per-peer worker threads, as over a
// virtual channel. The communicator owns the channel handle: Close closes
// it.
func OverChannel(ch *core.Channel, opts Options) (*Comm, error) {
	c, err := newComm(ch.Members(), ch.Rank(), opts)
	if err != nil {
		return nil, err
	}
	c.bind(ch.Name(), ch.Session(), opts)
	c.t = newTransport(ch, ch.Close, c.claim)
	return c, nil
}

// OverVC builds a communicator over a forwarding virtual channel; the
// derived topology is the VC's segment map, so Auto schedules cross the
// cluster boundary once per subtree instead of once per rank. The
// communicator owns the VC handle: Close closes it.
func OverVC(vc *fwd.VC, opts Options) (*Comm, error) {
	ch := vc.Channel()
	c, err := newComm(ch.Members(), ch.Rank(), opts)
	if err != nil {
		return nil, err
	}
	if opts.Topo == nil {
		segs := make([][]int, 0, len(vc.Clusters()))
		for _, seg := range vc.Clusters() {
			mapped := make([]int, len(seg))
			for i, node := range seg {
				mapped[i] = slices.Index(c.nodes, node)
			}
			segs = append(segs, mapped)
		}
		topo, err := FromClusters(len(c.nodes), segs)
		if err != nil {
			return nil, err
		}
		c.topo = topo
	}
	c.bind(ch.Name(), ch.Session(), opts)
	c.t = newTransport(ch, vc.Close, c.claim)
	return c, nil
}

func newComm(members []int, self int, opts Options) (*Comm, error) {
	nodes := append([]int(nil), members...)
	slices.Sort(nodes)
	rank := slices.Index(nodes, self)
	if rank < 0 {
		return nil, fmt.Errorf("coll: node %d is not a channel member", self)
	}
	topo := opts.Topo
	if topo == nil {
		topo = SingleCluster(len(nodes))
	}
	if topo.Size() != len(nodes) {
		return nil, fmt.Errorf("coll: topology covers %d ranks, channel has %d", topo.Size(), len(nodes))
	}
	c := &Comm{nodes: nodes, exps: make(map[expKey]*exp)}
	c.Ops = NewOps((*eventExec)(c), topo, rank, opts.Alg)
	return c, nil
}

// eventExec is Comm as its collectives' Executor: a type of its own, so
// Run and Reject stay out of Comm's method set.
type eventExec Comm

func (e *eventExec) Run(op string, p Plan) error { return (*Comm)(e).run(op, p) }

func (e *eventExec) Reject(op string, err error) error { return (*Comm)(e).fail(op, err) }

func (c *Comm) bind(name string, sess *core.Session, opts Options) {
	if opts.Name != "" {
		name = opts.Name
	}
	c.name = name
	c.actor = vclock.NewActor(fmt.Sprintf("coll/%s/%d", name, c.rank))
	c.rec = sess.Observer().Recorder()
	c.met = collMetrics(sess.Metrics())
	hash := fnv.New32a()
	fmt.Fprintf(hash, "coll/%s/%d", name, c.rank)
	c.traceBase = uint64(hash.Sum32()|1) << 32
}

// Rank reports the caller's communicator rank; Size the member count.
func (c *Comm) Rank() int { return c.rank }

// Size reports the communicator's rank count.
func (c *Comm) Size() int { return c.topo.Size() }

// Topology reports the communicator's cluster map.
func (c *Comm) Topology() *Topology { return c.topo }

// Now reports the rank's collective virtual clock (makespan reads).
func (c *Comm) Now() vclock.Time { return c.actor.Now() }

// Err reports the poisoning error, if any collective has failed.
func (c *Comm) Err() error { return c.err }

// Close releases the communicator and the channel it owns. Safe after
// errors; outstanding transport work drains first, and a collective called
// after Close fails.
func (c *Comm) Close() { c.t.close() }

// claim is the transport's landing hook for an arriving payload of
// h.length bytes. One that matches a registered expectation of the current
// collective lands directly in the caller's buffer (claimed). Anything else
// gets a spare buffer: a Combine arrival, which is folded, not stored; a
// message of a later collective, banked until its call; a mismatch the
// executor diagnoses (wrong sequence, unknown tag, bad length). The
// executor gives a spare back once it has copied or folded it.
func (c *Comm) claim(h wireHdr) (buf []byte, claimed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.seq == c.curSeq {
		e := c.exps[expKey{int(h.origin), int(h.tag)}]
		if e != nil && !e.claimed && e.sink != nil && int(h.length) == e.x.Len {
			e.claimed = true
			return e.sink, true
		}
	}
	return c.spare.get(int(h.length)), false
}

// spares are the payload buffers of messages that no sink claimed, kept
// between calls under Comm.mu: one idle list per power-of-two size class,
// indexed by the class's log2. A buffer comes back once its payload is
// copied or folded, so a class holds at most what was banked at once, and
// a collective sequence that repeats makes none after its first calls. A
// payload that fails its checks is left to the collector.
type spares struct {
	idle [][][]byte
	made int // buffers made, for the tests
}

// get returns n bytes, recycled when the size class has an idle buffer.
func (s *spares) get(n int) []byte {
	k := bits.Len(uint(n - 1))
	if k < len(s.idle) {
		if l := s.idle[k]; len(l) > 0 {
			b := l[len(l)-1]
			l[len(l)-1] = nil
			s.idle[k] = l[:len(l)-1]
			return b[:n]
		}
	}
	s.made++
	return make([]byte, n, 1<<k)
}

// put takes back a buffer get returned; nil (an empty payload) is none.
func (s *spares) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	k := bits.Len(uint(cap(b) - 1))
	for len(s.idle) <= k {
		s.idle = append(s.idle, nil)
	}
	s.idle[k] = append(s.idle[k], b)
}

// giveBack returns a consumed payload's spare.
func (c *Comm) giveBack(b []byte) {
	c.mu.Lock()
	c.spare.put(b)
	c.mu.Unlock()
}

// deferredFold is a combine/replace payload that arrived ahead of its
// round; it is applied when the round starts, after the round's sends
// snapshot the accumulator (ordering both correctness arguments depend
// on: a recursive-doubling partner must never receive its own
// contribution back).
type deferredFold struct {
	x    Xfer
	data []byte
}

// run executes one collective's plan. A send's payload is read
// asynchronously after isend; a plain receive's landing buffer is what
// claiming delivers into (none disables it); a payload that had none —
// Combine folds and whole-vector replacements — goes to the plan's Got.
func (c *Comm) run(op string, p Plan) error {
	if c.err != nil {
		return c.err
	}
	s := p.Sched
	c.seq++
	c.met.ops.Add(1)
	traceID := c.traceBase | uint64(c.seq)

	// Register every expectation before any message can match, count the
	// per-round receive debt, and pull messages that raced ahead of us out
	// of the future list.
	c.mu.Lock()
	c.reset(op, len(s.Rounds), s.NumRecvs())
	c.curSeq = c.seq
	next := 0
	for ri, r := range s.Rounds {
		c.recvLeft[ri] = len(r.Recvs)
		for _, x := range r.Recvs {
			k := expKey{x.Peer, x.Tag}
			if _, dup := c.exps[k]; dup {
				c.mu.Unlock()
				return c.fail(op, fmt.Errorf("coll: %s schedule repeats expectation origin %d tag %d", op, x.Peer, x.Tag))
			}
			e := &c.expBuf[next]
			next++
			*e = exp{x: x, round: ri}
			if !x.Combine {
				e.sink = p.Sink(x)
			}
			c.exps[k] = e
		}
	}
	keep := c.future[:0]
	for _, ev := range c.future {
		if ev.hdr.seq == c.seq {
			c.replay = append(c.replay, ev)
		} else {
			keep = append(keep, ev)
		}
	}
	clear(c.future[len(keep):])
	c.future = keep
	c.mu.Unlock()

	defer c.release()

	for _, ev := range c.replay {
		if err := c.handle(&p, ev); err != nil {
			return c.abort(err)
		}
	}

	token := 0
	for ri, r := range s.Rounds {
		c.curRound = ri
		t0 := c.actor.Now()
		for _, x := range r.Sends {
			payload := p.Data(x)
			h := wireHdr{seq: c.seq, origin: int32(c.rank), tag: uint32(x.Tag), length: uint32(len(payload))}
			c.met.msgsOut.Add(1)
			c.met.bytesOut.Add(int64(len(payload)))
			c.t.isend(token, c.nodes[x.Peer], h, payload, c.actor.Now())
			token++
			c.sendsOut++
		}
		for _, d := range c.deferred[ri] {
			if err := p.Got(d.x, d.data); err != nil {
				return c.abort(err)
			}
		}
		for c.recvLeft[ri] > 0 || c.sendsOut > 0 {
			ev, ok := c.t.inbox.Pop()
			if !ok {
				return c.abort(fmt.Errorf("coll: %s: transport closed mid-collective", op))
			}
			if err := c.handle(&p, ev); err != nil {
				return c.abort(err)
			}
		}
		if c.rec != nil {
			c.rec.RecordT(c.actor.Name(), t0, c.actor.Now(), fmt.Sprintf("c:%s/r%d", op, ri), traceID, 0)
		}
	}
	return nil
}

// reset readies the kept executor state for a call of op with rounds
// rounds and recvs expectations. It runs under c.mu.
func (c *Comm) reset(op string, rounds, recvs int) {
	c.op, c.curRound, c.sendsOut = op, -1, 0
	if cap(c.recvLeft) < rounds {
		c.recvLeft = make([]int, rounds)
	}
	c.recvLeft = c.recvLeft[:rounds]
	for len(c.deferred) < rounds {
		c.deferred = append(c.deferred, nil)
	}
	clear(c.exps)
	if cap(c.expBuf) < recvs {
		c.expBuf = make([]exp, recvs)
	}
	c.expBuf = c.expBuf[:recvs]
}

// release ends a call: the deferred folds' spares go back, applied or not,
// and the replayed events are dropped, so no payload outlives the call in
// the kept lists. A replayed event's spare went back when it was handled;
// one that an abort left unhandled is the collector's.
func (c *Comm) release() {
	c.mu.Lock()
	for ri, d := range c.deferred {
		for _, f := range d {
			c.spare.put(f.data)
		}
		clear(d)
		c.deferred[ri] = d[:0]
	}
	c.mu.Unlock()
	clear(c.replay)
	c.replay = c.replay[:0]
}

// handle consumes one transport event of the running call.
func (c *Comm) handle(p *Plan, ev event) error {
	if ev.err != nil {
		return ev.err
	}
	c.actor.Sync(ev.stamp)
	if ev.send {
		c.sendsOut--
		return nil
	}
	if ev.hdr.seq != c.seq {
		if ev.hdr.seq > c.seq {
			// A rank already running a later collective: bank the
			// message until its call.
			c.mu.Lock()
			c.future = append(c.future, ev)
			c.mu.Unlock()
			return nil
		}
		return fmt.Errorf("coll: %s: stale message seq %d during %d", c.op, ev.hdr.seq, c.seq)
	}
	k := expKey{int(ev.hdr.origin), int(ev.hdr.tag)}
	c.mu.Lock()
	e := c.exps[k]
	c.mu.Unlock()
	if e == nil || e.matched {
		return fmt.Errorf("coll: %s: unexpected message from rank %d tag %d", c.op, k.origin, k.tag)
	}
	if int(ev.hdr.length) != e.x.Len {
		return &SizeError{Source: k.origin, Got: int(ev.hdr.length), Want: e.x.Len}
	}
	e.matched = true
	c.recvLeft[e.round]--
	c.met.msgsIn.Add(1)
	c.met.bytesIn.Add(int64(e.x.Len))
	switch {
	case ev.claimed:
		c.met.claimed.Add(1)
	case e.sink != nil:
		copy(e.sink, ev.data)
		c.giveBack(ev.data)
	case e.round > c.curRound:
		c.deferred[e.round] = append(c.deferred[e.round], deferredFold{x: e.x, data: ev.data})
	default:
		err := p.Got(e.x, ev.data)
		c.giveBack(ev.data)
		return err
	}
	return nil
}

// abort ends the running call with err. It drains outstanding sends before
// poisoning: their payload slices are still being read by the transport,
// and the caller may reuse those buffers the moment we return.
func (c *Comm) abort(err error) error {
	for c.sendsOut > 0 {
		ev, ok := c.t.inbox.Pop()
		if !ok {
			break
		}
		if ev.send {
			c.sendsOut--
		}
	}
	return c.fail(c.op, err)
}

// fail poisons the communicator: the ranks no longer agree on the
// collective sequence, so every later call reports the first failure.
func (c *Comm) fail(op string, err error) error {
	err = fmt.Errorf("coll: %s on %s rank %d: %w", op, c.name, c.rank, err)
	c.met.errors.Add(1)
	if c.err == nil {
		c.err = err
	}
	return err
}
