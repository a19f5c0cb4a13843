// Package mpi implements the ch_mad device of §5.3.1: a compact MPI-style
// message-passing layer whose entire transport is Madeleine II channels,
// "letting MPICH benefit from the multi-protocol features of Madeleine II".
// Point-to-point matching (source and tag wildcards, non-overtaking per
// (source, tag)), sub-communicators, non-blocking operations, derived
// datatypes, the collectives the examples need, and the modeled comparator
// baselines of Fig. 6 (SCI-MPICH, ScaMPI) live here.
package mpi

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"madeleine2/internal/coll"
	"madeleine2/internal/core"
	"madeleine2/internal/model"
	"madeleine2/internal/vclock"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// MaxTag is the exclusive bound of application tags (the top of each
// context's tag space is reserved for the collectives).
const MaxTag = contextStride - 2048

// chMadOverhead is the per-side cost of the MPICH layering above Madeleine
// (ADI dispatch, request bookkeeping): the reason Fig. 6 shows ch_mad's
// small-message latency losing to the native MPI implementations while its
// large-message bandwidth wins.
var chMadOverhead = vclock.Micros(3)

// msgHdr is the ch_mad envelope: wire tag, payload size and segment count,
// packed express so the receiver can match and size the extraction
// (exactly the Fig. 1 pattern). Contiguous messages have zero segments;
// derived-datatype messages (datatype.go) carry a segment-size table and
// one Madeleine block per segment.
const msgHdrSize = 12

// Status describes a completed receive.
type Status struct {
	Source int // rank of the sender in the receiving communicator
	Tag    int
	Count  int // payload bytes
}

// unexpected is a matched-later message, keyed by source NODE and wire
// tag (communicator-independent; translation happens at delivery).
type unexpected struct {
	node    int
	wireTag int
	data    []byte
	stamp   vclock.Time
}

// matcher is the per-channel matching state, shared by a communicator and
// every sub-communicator split from it. Like an MPI process, the whole
// family belongs to one application thread: it owns the unexpected queue
// (pending), drives the channel's receive path, and reaps the family's
// Isends, which run on the session's progress engine.
type matcher struct {
	ch      *core.Channel
	pending []unexpected

	cq *core.CQ // every completion of the family's Isends
	// inflight counts Isends whose End is not yet taken off cq: the
	// collectives' no-leak contract leaves it at zero.
	inflight atomic.Int64
	owed     int // Isends waited for, minus Ends taken off cq
}

// Comm is a communicator over one Madeleine channel. Ranks are dense
// 0..Size()-1 positions in the member list; sub-communicators share the
// parent's channel and matcher, isolated by a tag-space context.
type Comm struct {
	m       *matcher
	actor   *vclock.Actor
	rank    int   // rank in this communicator
	nodes   []int // rank -> node rank
	byNode  map[int]int
	context int
	parent  *Comm
	ops     coll.Ops // the collectives over runSchedule (collectives.go)
	reqs    []*Request
	gotBuf  []byte
}

// NewComm wraps one rank's channel handle into a world communicator
// driven by the given actor.
func NewComm(ch *core.Channel, a *vclock.Actor) (*Comm, error) {
	nodes := ch.Members()
	c := &Comm{
		m:      &matcher{ch: ch, cq: core.NewCQ()},
		actor:  a,
		nodes:  nodes,
		byNode: make(map[int]int, len(nodes)),
	}
	c.rank = -1
	for i, n := range nodes {
		c.byNode[n] = i
		if n == ch.Rank() {
			c.rank = i
		}
	}
	if c.rank < 0 {
		return nil, fmt.Errorf("mpi: node %d is not a member of channel %q", ch.Rank(), ch.Name())
	}
	return c.bindColl(), nil
}

// Rank reports the caller's rank in this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.nodes) }

// Actor exposes the communicator's virtual clock (for harnesses).
func (c *Comm) Actor() *vclock.Actor { return c.actor }

// Parent reports the communicator this one was split from (nil for the
// world communicator).
func (c *Comm) Parent() *Comm { return c.parent }

// Inflight reports the number of non-blocking sends posted on this
// communicator family that no Wait or Close has completed yet.
func (c *Comm) Inflight() int { return int(c.m.inflight.Load()) }

// RankOfNode translates a node rank into this communicator's rank.
func (c *Comm) RankOfNode(node int) (int, bool) {
	r, ok := c.byNode[node]
	return r, ok
}

// Link summarizes the one-way cost of the communicator's transport plus
// the ch_mad per-side overheads, for layers stacked above MPI.
func (c *Comm) Link(n int) model.Link {
	l := c.m.ch.Link(n)
	l.Fixed += 2 * chMadOverhead
	return l
}

// wireTag folds a user or collective tag into the communicator's context.
func (c *Comm) wireTag(tag int) (int, error) {
	if tag >= 0 {
		if tag >= MaxTag {
			return 0, fmt.Errorf("mpi: tag %d out of range (max %d)", tag, MaxTag-1)
		}
		return c.context + tag, nil
	}
	// Collective tags are the small negative constants in collectives.go,
	// mapped into the reserved top of the context's tag space.
	idx := -tag - 1000
	if idx < 0 || idx >= 1024 {
		return 0, fmt.Errorf("mpi: bad internal tag %d", tag)
	}
	return c.context + MaxTag + idx, nil
}

// unwire recovers the user-level tag of a wire tag in this context.
func (c *Comm) unwire(wire int) int {
	rel := wire - c.context
	if rel >= MaxTag {
		return -(rel - MaxTag) - 1000
	}
	return rel
}

// inContext reports whether a wire tag belongs to this communicator.
func (c *Comm) inContext(wire int) bool {
	return wire >= c.context && wire < c.context+contextStride
}

// Send transmits data to (dst, tag). Eager one-message protocol: an
// express envelope followed by the payload; Madeleine's own transmission
// modules provide the rendezvous machinery for large payloads.
func (c *Comm) Send(dst, tag int, data []byte) error {
	return c.SendAs(c.actor, dst, tag, data)
}

// SendAs is Send driven by an explicit actor. Layers that multiplex a
// communicator under their own threads of control use it — the "Madeleine
// on top of MPI" port (internal/overmpi) is one.
func (c *Comm) SendAs(a *vclock.Actor, dst, tag int, data []byte) error {
	node, wire, err := c.route(dst, tag)
	if err != nil {
		return err
	}
	a.Advance(chMadOverhead)
	return c.m.ch.Send(a, node, func(conn *core.Connection) error {
		var hdr [msgHdrSize]byte
		if err := conn.Pack(putHdr(hdr[:], wire, len(data), 0), core.SendSafer, core.ReceiveExpress); err != nil || len(data) == 0 {
			return err
		}
		return conn.Pack(data, core.SendCheaper, core.ReceiveCheaper)
	})
}

// route checks a send's destination rank (self-sends are unsupported) and
// tag, and returns the destination node and the wire tag.
func (c *Comm) route(dst, tag int) (node, wire int, err error) {
	if dst < 0 || dst >= len(c.nodes) || dst == c.rank {
		return 0, 0, fmt.Errorf("mpi: bad destination rank %d", dst)
	}
	wire, err = c.wireTag(tag)
	return c.nodes[dst], wire, err
}

// putHdr encodes the envelope into hdr[:msgHdrSize] and returns that.
func putHdr(hdr []byte, wire, n, segs int) []byte {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(int32(wire)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(segs))
	return hdr[:msgHdrSize]
}

// match reports whether a queued message satisfies (src, tag) in this
// communicator, with wildcards.
func (c *Comm) match(u unexpected, src, tag int) bool {
	if !c.inContext(u.wireTag) {
		return false
	}
	srcRank, member := c.byNode[u.node]
	if !member {
		return false
	}
	if src != AnySource && srcRank != src {
		return false
	}
	return tag == AnyTag || c.unwire(u.wireTag) == tag
}

// Recv receives the next message matching (src, tag) — either wildcard —
// into buf, returning its status. Messages that arrive earlier but do not
// match are queued and stay matchable, preserving MPI's non-overtaking
// order per (source, tag).
func (c *Comm) Recv(src, tag int, buf []byte) (Status, error) {
	return c.RecvAs(c.actor, src, tag, buf)
}

// RecvAs is Recv driven by an explicit actor (see SendAs).
func (c *Comm) RecvAs(a *vclock.Actor, src, tag int, buf []byte) (Status, error) {
	for i, u := range c.m.pending {
		if c.match(u, src, tag) {
			c.m.pending = append(c.m.pending[:i], c.m.pending[i+1:]...)
			return c.deliver(a, u, buf)
		}
	}
	for {
		u, err := c.m.pull(a)
		if err != nil {
			return Status{}, err
		}
		if c.match(u, src, tag) {
			return c.deliver(a, u, buf)
		}
		c.m.pending = append(c.m.pending, u)
	}
}

// Probe blocks until a message matching (src, tag) is available and
// returns its status without receiving it.
func (c *Comm) Probe(src, tag int) (Status, error) {
	for {
		for _, u := range c.m.pending {
			if c.match(u, src, tag) {
				return c.status(u), nil
			}
		}
		u, err := c.m.pull(c.actor)
		if err != nil {
			return Status{}, err
		}
		c.m.pending = append(c.m.pending, u)
	}
}

// status translates a queued message into this communicator's terms.
func (c *Comm) status(u unexpected) Status {
	return Status{Source: c.byNode[u.node], Tag: c.unwire(u.wireTag), Count: len(u.data)}
}

// pull extracts the next raw channel message. A malformed one is dropped
// whole, and its scope still ends.
func (m *matcher) pull(a *vclock.Actor) (unexpected, error) {
	var u unexpected
	err := m.ch.Recv(a, func(conn *core.Connection) error {
		u.node = conn.Remote()
		var hdr [msgHdrSize]byte
		if err := conn.Unpack(hdr[:], core.SendSafer, core.ReceiveExpress); err != nil {
			return err
		}
		u.wireTag = int(int32(binary.LittleEndian.Uint32(hdr[0:])))
		n := int(binary.LittleEndian.Uint32(hdr[4:]))
		segs := int(binary.LittleEndian.Uint32(hdr[8:]))
		if segs > n { // segments are never empty: refuse before allocating
			return fmt.Errorf("mpi: %d segments for %d payload bytes", segs, n)
		}
		u.data = make([]byte, n)
		switch {
		case segs > 0:
			// Derived-datatype message: a segment-size table steers the
			// extraction of one Madeleine block per segment, assembled
			// contiguously (the receive side's gather).
			table := make([]byte, 4*segs)
			if err := conn.Unpack(table, core.SendSafer, core.ReceiveExpress); err != nil {
				return err
			}
			off := 0
			for i := 0; i < segs; i++ {
				k := int(binary.LittleEndian.Uint32(table[4*i:]))
				if off+k > n {
					return fmt.Errorf("mpi: segment table overflows the payload")
				}
				if err := conn.Unpack(u.data[off:off+k], core.SendCheaper, core.ReceiveCheaper); err != nil {
					return err
				}
				off += k
			}
			if off != n {
				return fmt.Errorf("mpi: segment table short of the payload")
			}
		case n > 0:
			return conn.Unpack(u.data, core.SendCheaper, core.ReceiveCheaper)
		}
		return nil
	})
	if err != nil {
		return unexpected{}, err
	}
	u.stamp = a.Now()
	return u, nil
}

// deliver completes a receive into the user buffer.
func (c *Comm) deliver(a *vclock.Actor, u unexpected, buf []byte) (Status, error) {
	st := c.status(u)
	if st.Count > len(buf) {
		return st, fmt.Errorf("mpi: message truncated: %d bytes into a %d-byte buffer", st.Count, len(buf))
	}
	copy(buf, u.data)
	a.Sync(u.stamp)
	a.Advance(chMadOverhead)
	return st, nil
}

// Sendrecv performs the classic paired exchange used by ping-pong
// benchmarks and shift patterns.
func (c *Comm) Sendrecv(dst, stag int, out []byte, src, rtag int, in []byte) (Status, error) {
	if err := c.Send(dst, stag, out); err != nil {
		return Status{}, err
	}
	return c.Recv(src, rtag, in)
}
