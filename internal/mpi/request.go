package mpi

import (
	"madeleine2/internal/core"
	"madeleine2/internal/vclock"
)

// Non-blocking point-to-point operations. An Isend is one send
// conversation on the session's progress engine, the one coll's channel
// transport drives: the caller pays the issue cost, the conversation
// starts no earlier than the issue plus ch_mad's per-side overhead, and
// Wait syncs the caller to its End, so communication overlaps computation
// in virtual time. The conversation joins the connection's send-lease
// FIFO before Isend returns, so a later Send to the same rank queues
// behind it. Isend buffers the payload (MPI_Ibsend semantics).
//
// Irecv is lazy: matching work happens at Wait on the caller's thread
// (the communicator's matching state is single-threaded). Posting early
// still pins the (source, tag) slot in program order.

// Request is an outstanding non-blocking operation.
type Request struct {
	c    *Comm
	end  *core.Request // a posted send's End; nil for a receive or a rejected send
	done bool
	st   Status
	err  error

	src, tag int // a receive's arguments
	buf      []byte
}

// issueCost is the caller-side cost of posting a non-blocking operation.
var issueCost = vclock.Micros(0.8)

// Isend posts a buffered non-blocking send and returns its request. An
// argument error surfaces at Wait, and no conversation is opened.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	c.actor.Advance(issueCost)
	req := &Request{c: c}
	node, wire, err := c.route(dst, tag)
	var am *core.AsyncMsg
	if err == nil {
		am, err = c.m.ch.SubmitPackingFrom(node, c.m.cq, c.actor.Now()+chMadOverhead)
	}
	if err != nil {
		req.done, req.err = true, err
		return req
	}
	c.m.inflight.Add(1)
	// The envelope and the copied payload, alive until the End.
	msg := make([]byte, msgHdrSize+len(data))
	copy(msg[msgHdrSize:], data)
	_ = am.SubmitPack(putHdr(msg, wire, len(data), 0), core.SendSafer, core.ReceiveExpress)
	if len(data) > 0 {
		_ = am.SubmitPack(msg[msgHdrSize:], core.SendCheaper, core.ReceiveCheaper)
	}
	req.end = am.SubmitEnd()
	return req
}

// Irecv posts a non-blocking receive into buf.
func (c *Comm) Irecv(src, tag int, buf []byte) *Request {
	c.actor.Advance(issueCost)
	return &Request{c: c, src: src, tag: tag, buf: buf}
}

// Wait blocks until the request completes, synchronizes the caller's
// clock to the completion, and returns the receive status (zero for
// sends).
func (req *Request) Wait() (Status, error) {
	if req.done {
		return req.st, req.err
	}
	req.done = true
	if req.end == nil {
		req.st, req.err = req.c.Recv(req.src, req.tag, req.buf)
		return req.st, req.err
	}
	// Core marks an End done before posting it: take completions until
	// every waited End is off the CQ, so none is left behind.
	m := req.c.m
	m.owed++
	for !req.end.Done() || m.owed > 0 {
		m.reap()
	}
	comp, _ := req.end.Completion()
	req.err = req.end.Msg().Err() // the conversation's causal error
	req.c.actor.Sync(comp.Time)
	return req.st, req.err
}

// reap takes one completion off the family's CQ, blocking for it. Only an
// End counts: an Isend's other completions precede it on the CQ.
func (m *matcher) reap() {
	if comp, _ := m.cq.Wait(); comp.Kind == core.OpEnd {
		m.inflight.Add(-1)
		m.owed--
	}
}

// Waitall completes every request, returning the first error.
func Waitall(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close joins the communicator family's non-blocking sends: it returns
// once every posted Isend has completed, waited for or not. The
// communicators stay usable.
func (c *Comm) Close() {
	for c.m.inflight.Load() > 0 {
		c.m.reap()
	}
}
