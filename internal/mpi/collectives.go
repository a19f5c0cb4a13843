package mpi

import (
	"fmt"

	"madeleine2/internal/coll"
)

// Collectives over the point-to-point layer. Their definitions are coll's
// (coll.Ops: argument checks, topology-aware schedules, the reduction
// fold); mpi's own is the executor, runSchedule. Tags in the collective
// range keep the traffic off the application's tag space. A peer whose
// block length contradicts the schedule surfaces from any of them as a
// *coll.SizeError instead of corrupting an output.
var collTags = map[string]int{
	"bcast": -1000, "barrier": -1001, "reduce": -1002, "allreduce": -1003,
	"gather": -1004, "scatter": -1005, "alltoall": -1006, "allgather": -1007,
}

// Op is a reduction operator over float64 vectors.
type Op = coll.Op

// Predefined reduction operators.
const Sum, Max, Min = coll.Sum, coll.Max, coll.Min

// bindColl ends both constructors: it binds coll's collectives to the
// communicator. One channel is one cluster; the executor is runSchedule.
func (c *Comm) bindColl() *Comm {
	c.ops = coll.NewOps((*schedExec)(c), coll.SingleCluster(len(c.nodes)), c.rank, coll.Auto)
	return c
}

// schedExec is Comm as coll.Ops' executor: a type of its own, so Run and
// Reject stay out of Comm's method set.
type schedExec Comm

func (e *schedExec) Run(op string, p coll.Plan) error { return (*Comm)(e).runSchedule(collTags[op], p) }

// Reject only names the layer: nothing was posted, so the communicator
// stays usable.
func (e *schedExec) Reject(op string, err error) error { return fmt.Errorf("mpi: %s: %w", op, err) }

// runSchedule executes one collective: per round, every send is posted
// through the engine (non-blocking, so tree forwarding and ring steps
// overlap, and a rendezvous transport cannot deadlock an exchange cycle),
// then the round's receives are taken in schedule order — correct because
// both ends derive the same schedule and matching is non-overtaking per
// (source, tag) — each validated (Probe) before its payload touches
// caller memory.
//
// Failure contract: a receive that cannot complete — peer vanished, or
// its block length contradicts the schedule — aborts the collective
// without leaking a single in-flight request. The remaining scheduled
// sends are posted as zero-length poison (every peer's schedule expects
// a non-empty block, so poison surfaces at them as the same typed
// SizeError and the abort cascades), the remaining scheduled receives
// are drained so no rendezvous sender stays wedged against us, and
// Waitall reaps every request before the error returns.
//
// The request list and a reduction's receive buffer are kept on the
// Comm between calls: Isend copies its payload, and Got consumes each
// arrival before the next Recv refills the buffer.
func (c *Comm) runSchedule(tag int, p coll.Plan) error {
	s := p.Sched
	clear(c.reqs)
	c.reqs = c.reqs[:0]
	fail := func(ri, xi int, err error) error {
		for _, r := range s.Rounds[ri+1:] {
			for _, x := range r.Sends {
				c.reqs = append(c.reqs, c.Isend(x.Peer, tag, nil))
			}
		}
		drain := append([]coll.Xfer(nil), s.Rounds[ri].Recvs[xi:]...)
		for _, r := range s.Rounds[ri+1:] {
			drain = append(drain, r.Recvs...)
		}
		for _, x := range drain {
			st, perr := c.Probe(x.Peer, tag)
			if perr != nil {
				break // transport gone: nothing left to consume
			}
			if _, rerr := c.Recv(x.Peer, tag, make([]byte, st.Count)); rerr != nil {
				break
			}
		}
		_ = Waitall(c.reqs...)
		return err
	}
	for ri, round := range s.Rounds {
		for _, x := range round.Sends {
			c.reqs = append(c.reqs, c.Isend(x.Peer, tag, p.Data(x)))
		}
		for xi, x := range round.Recvs {
			st, err := c.Probe(x.Peer, tag)
			if err != nil {
				return fail(ri, xi+1, err)
			}
			if st.Count != x.Len {
				// Consume the liar's block into scratch first: leaving it
				// queued would poison the next collective's matching.
				_, _ = c.Recv(x.Peer, tag, make([]byte, st.Count))
				return fail(ri, xi+1, &coll.SizeError{Source: x.Peer, Got: st.Count, Want: x.Len})
			}
			if buf := p.Sink(x); buf != nil {
				_, err = c.Recv(x.Peer, tag, buf)
			} else {
				if cap(c.gotBuf) < x.Len {
					c.gotBuf = make([]byte, x.Len)
				}
				buf = c.gotBuf[:x.Len]
				if _, err = c.Recv(x.Peer, tag, buf); err == nil {
					err = p.Got(x, buf)
				}
			}
			if err != nil {
				return fail(ri, xi+1, err)
			}
		}
	}
	return Waitall(c.reqs...)
}

// Bcast broadcasts buf from root to every rank.
func (c *Comm) Bcast(root int, buf []byte) error { return c.ops.Bcast(root, buf) }

// Barrier synchronizes all ranks.
func (c *Comm) Barrier() error { return c.ops.Barrier() }

// Reduce combines each rank's vector element-wise with op into out on
// root; out is only written there and must hold len(in) elements.
func (c *Comm) Reduce(root int, in, out []float64, op Op) error {
	return c.ops.Reduce(root, in, out, op)
}

// Allreduce is Reduce with the result in every rank's out.
func (c *Comm) Allreduce(in, out []float64, op Op) error { return c.ops.Allreduce(in, out, op) }

// Gather collects each rank's equally sized block to root (block i lands
// at offset i*len(in) of out).
func (c *Comm) Gather(root int, in, out []byte) error { return c.ops.Gather(root, in, out) }

// Scatter distributes equally sized blocks of in (on root) to every
// rank's out buffer.
func (c *Comm) Scatter(root int, in, out []byte) error { return c.ops.Scatter(root, in, out) }

// Allgather is Gather with the result in every rank's out.
func (c *Comm) Allgather(in, out []byte) error { return c.ops.Allgather(in, out) }

// Alltoall sends the i-th equally sized block of in to rank i and places
// the block received from rank j at position j of out.
func (c *Comm) Alltoall(in, out []byte) error { return c.ops.Alltoall(in, out) }
