package coll

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Op is a reduction operator over float64 vectors. It is defined here and
// re-exported by mpi, because the MPI layer is a client of this package,
// not the other way around.
type Op int

const (
	Sum Op = iota
	Max
	Min
)

// replace is fold's whole-vector copy: the broadcast phase of a composed
// allreduce overwrites the accumulator.
const replace Op = -1

// fold combines the little-endian float64 vector in (8*len(acc) bytes)
// into acc.
func (op Op) fold(acc []float64, in []byte) {
	for i := range acc {
		v := math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		switch {
		case op == Sum:
			acc[i] += v
		case op == replace, op == Max && v > acc[i], op == Min && v < acc[i]:
			acc[i] = v
		}
	}
}

// Plan is one collective call ready to run: its schedule, and where each
// transfer's bytes live. It says so with buffers, not callbacks, so the
// executors reach it through static calls and a call allocates nothing
// for it. A plain transfer x is the window [x.Off-off, x.Off-off+x.Len)
// of the send or receive buffer (off is non-zero for a tree leaf, whose
// buffer is its own block only); a reduction has an accumulator instead:
// every send is a snapshot of it and every arrival folds into it.
//
// Sched may be the Ops' memoized schedule, shared with later calls:
// executors read it and never modify or keep it.
type Plan struct {
	Sched            Schedule
	send, recv       []byte
	sendOff, recvOff int
	acc              []float64 // non-nil: a reduction with op
	op               Op
	enc              []byte // 8*len(acc) bytes: the snapshot sends read
	encoded          bool   // enc holds acc: no Got since the last Data
}

// Data yields a send's payload. A reduction's snapshot is rewritten by the
// first Data after a Got changed the accumulator, so the executor may read
// a payload only until its round's sends complete, or copy it when it
// posts the send.
func (p *Plan) Data(x Xfer) []byte {
	if p.acc != nil {
		if !p.encoded {
			for i, v := range p.acc {
				binary.LittleEndian.PutUint64(p.enc[8*i:], math.Float64bits(v))
			}
			p.encoded = true
		}
		return p.enc
	}
	return p.send[x.Off-p.sendOff:][:x.Len]
}

// Sink yields a receive's landing buffer, or nil when the payload is for
// Got: no receive of a reduction has one.
func (p *Plan) Sink(x Xfer) []byte {
	if p.recv == nil {
		return nil
	}
	return p.recv[x.Off-p.recvOff:][:x.Len]
}

// Got consumes an arrived payload that had no sink: it combines with (or,
// for the broadcast phase of a composed allreduce, replaces) the
// accumulator, straight from b. A barrier's bytes carry nothing.
func (p *Plan) Got(x Xfer, b []byte) error {
	if p.acc == nil {
		return nil
	}
	if len(b) != 8*len(p.acc) {
		return fmt.Errorf("coll: reduction payload is %d bytes, want %d", len(b), 8*len(p.acc))
	}
	op := p.op
	if !x.Combine {
		op = replace
	}
	op.fold(p.acc, b)
	p.encoded = false
	return nil
}

// Executor runs one rank's plans. There are two: this package's Comm,
// event-driven over a transport and poisoned by its first failure, and
// mpi's, which pulls its tag matcher on the application thread and leaves
// the communicator usable after an abort.
type Executor interface {
	// Run executes the plan of one call of the named collective.
	Run(op string, p Plan) error
	// Reject reports arguments the named collective cannot run with and
	// returns the error its caller gets.
	Reject(op string, err error) error
}

// Ops is one rank's collectives, each defined once: validate the caller's
// buffers, build the plan, hand it to the executor. Comm embeds it;
// mpi.Comm delegates to one over its own executor.
type Ops struct {
	x    Executor
	topo *Topology
	rank int
	alg  Algorithm

	// One memo per collective: the last call's schedule and its key.
	bcast, gather, scatter, allgather, alltoall, alltoallv memo
	reduce, allreduce, barrier                             memo

	// Buffers kept between calls: a communicator runs one collective at a
	// time, and Run returns only once every send has completed. scratch is
	// where a relay of Gather or Scatter stages its subtree; acc and enc
	// are a reduction's accumulator and the snapshot its sends read.
	scratch []byte
	acc     []float64
	enc     []byte
}

// memo is one collective's last schedule and the key it was built for:
// root and byte size, plus copies of Alltoallv's count vectors. Topology,
// rank and algorithm are fixed per Ops, so they are not part of it. A call
// with an equal key reuses the schedule; Alltoallv, whose counts alternate
// in an MoE step, rebuilds into buf.
type memo struct {
	valid      bool
	root, size int
	send, recv []int
	s          Schedule
	buf        schedBuf
}

// stale reports whether (root, size) differs from the memoized key and, if
// so, records it: the caller then builds m.s for it.
func (m *memo) stale(root, size int) bool {
	if m.valid && m.root == root && m.size == size {
		return false
	}
	m.valid, m.root, m.size = true, root, size
	return true
}

// NewOps binds the collectives of one rank of topo to an executor.
func NewOps(x Executor, topo *Topology, rank int, alg Algorithm) Ops {
	return Ops{x: x, topo: topo, rank: rank, alg: alg}
}

// Bcast broadcasts root's buf to every rank; all callers pass equal-length
// buffers.
func (c *Ops) Bcast(root int, buf []byte) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	if m := &c.bcast; m.stale(root, len(buf)) {
		m.s = BcastSched(c.topo, c.rank, root, len(buf), c.alg)
	}
	return c.x.Run("bcast", Plan{Sched: c.bcast.s, send: buf, recv: buf})
}

// Gather collects every rank's in block at root in rank order (block i at
// offset i*len(in) of out). Every rank must contribute the same block
// length; out is only read at root and must hold Size()*len(in) bytes.
// Non-leaf ranks of the gather tree stage their subtree in the rank's
// scratch buffer, so intermediate blocks never touch caller memory.
func (c *Ops) Gather(root int, in, out []byte) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	n, blk := c.topo.Size(), len(in)
	if m := &c.gather; m.stale(root, blk) {
		m.s = GatherSched(c.topo, c.rank, root, blk, c.alg)
	}
	p := Plan{Sched: c.gather.s}
	switch {
	case c.rank == root:
		if len(out) < n*blk {
			return c.x.Reject("gather", fmt.Errorf("output holds %d bytes, need %d", len(out), n*blk))
		}
		p.recv = out[:n*blk]
	case p.Sched.NumRecvs() > 0: // relay: stage the subtree
		p.recv = c.stage(n * blk)
	default: // leaf: the only send is the own block
		p.send, p.sendOff = in, c.rank*blk
	}
	if p.recv != nil {
		copy(p.recv[c.rank*blk:], in)
		p.send = p.recv
	}
	return c.run("gather", p)
}

// Scatter distributes root's in (Size() blocks of len(out) bytes, rank
// order) so each rank receives its block in out.
func (c *Ops) Scatter(root int, in, out []byte) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	n, blk := c.topo.Size(), len(out)
	if m := &c.scatter; m.stale(root, blk) {
		m.s = ScatterSched(c.topo, c.rank, root, blk, c.alg)
	}
	p := Plan{Sched: c.scatter.s}
	switch {
	case c.rank == root:
		if len(in) < n*blk {
			return c.x.Reject("scatter", fmt.Errorf("input holds %d bytes, need %d", len(in), n*blk))
		}
		p.send = in[:n*blk]
	case p.Sched.NumSends() > 0: // relay: stage the subtree before forwarding
		p.send = c.stage(n * blk)
		p.recv = p.send
	default: // leaf: the only receive is the own block
		p.recv, p.recvOff = out, c.rank*blk
	}
	if err := c.run("scatter", p); err != nil {
		return err
	}
	if p.send != nil {
		copy(out, p.send[c.rank*blk:c.rank*blk+blk])
	}
	return nil
}

// stage returns the scratch buffer cut to n bytes, growing it if needed.
func (c *Ops) stage(n int) []byte {
	if cap(c.scratch) < n {
		c.scratch = make([]byte, n)
	}
	return c.scratch[:n]
}

// run hands a plan that may read the kept buffers to the executor.
func (c *Ops) run(op string, p Plan) error {
	err := c.x.Run(op, p)
	if err != nil { // a failed run may have left a send reading them
		c.scratch, c.acc, c.enc = nil, nil, nil
	}
	return err
}

// Allgather concatenates every rank's in block into out (canonical rank
// order) on every rank; out must hold Size()*len(in) bytes.
func (c *Ops) Allgather(in, out []byte) error {
	n, blk := c.topo.Size(), len(in)
	if len(out) < n*blk {
		return c.x.Reject("allgather", fmt.Errorf("output holds %d bytes, need %d", len(out), n*blk))
	}
	copy(out[c.rank*blk:], in)
	if m := &c.allgather; m.stale(0, blk) {
		m.s = AllgatherSched(c.topo, c.rank, blk, c.alg)
	}
	return c.x.Run("allgather", Plan{Sched: c.allgather.s, send: out, recv: out})
}

// Alltoall exchanges len(in)/Size()-byte blocks: block d of in travels to
// rank d, landing as block Rank() of d's out.
func (c *Ops) Alltoall(in, out []byte) error {
	n := c.topo.Size()
	if len(in) != len(out) || len(in)%n != 0 {
		return c.x.Reject("alltoall", fmt.Errorf("buffers of %d and %d bytes are not %d equal blocks", len(in), len(out), n))
	}
	blk := len(in) / n
	copy(out[c.rank*blk:(c.rank+1)*blk], in[c.rank*blk:])
	if m := &c.alltoall; m.stale(0, blk) {
		m.s = AlltoallSched(c.topo, c.rank, blk, c.alg)
	}
	return c.x.Run("alltoall", Plan{Sched: c.alltoall.s, send: in, recv: out})
}

// Alltoallv is the sparse exchange driving the MoE workloads: rank sends
// sendCounts[d] bytes to each rank d (packed in rank order in in) and
// receives recvCounts[o] bytes from each o (packed in rank order in out).
// Both count vectors must be globally coherent: sendCounts[d] here equals
// recvCounts[Rank()] at rank d.
func (c *Ops) Alltoallv(in []byte, sendCounts []int, out []byte, recvCounts []int) error {
	n := c.topo.Size()
	if len(sendCounts) != n || len(recvCounts) != n {
		return c.x.Reject("alltoallv", fmt.Errorf("count vectors of %d and %d entries, want %d", len(sendCounts), len(recvCounts), n))
	}
	var soff, roff, stot, rtot int // the own blocks' offsets; the totals
	for i := range n {
		if i == c.rank {
			soff, roff = stot, rtot
		}
		stot += sendCounts[i]
		rtot += recvCounts[i]
	}
	if len(in) < stot || len(out) < rtot {
		return c.x.Reject("alltoallv", fmt.Errorf("buffers hold %d/%d bytes, counts need %d/%d", len(in), len(out), stot, rtot))
	}
	copy(out[roff:roff+recvCounts[c.rank]], in[soff:])
	m := &c.alltoallv
	if !m.valid || !slices.Equal(m.send, sendCounts) || !slices.Equal(m.recv, recvCounts) {
		m.valid = true
		m.send = append(m.send[:0], sendCounts...)
		m.recv = append(m.recv[:0], recvCounts...)
		m.s = alltoallvInto(&m.buf, c.topo, c.rank, sendCounts, recvCounts, c.alg)
	}
	return c.x.Run("alltoallv", Plan{Sched: m.s, send: in, recv: out})
}

// Reduce folds every rank's in element-wise with op, delivering the
// result in root's out (unused elsewhere), which must hold len(in)
// elements.
func (c *Ops) Reduce(root int, in, out []float64, op Op) error {
	if err := c.checkRoot(root); err != nil {
		return err
	}
	if m := &c.reduce; m.stale(root, 8*len(in)) {
		m.s = ReduceSched(c.topo, c.rank, root, 8*len(in), c.alg)
	}
	return c.reduction("reduce", c.reduce.s, in, out, op, c.rank == root)
}

// Allreduce folds every rank's in element-wise with op, delivering the
// result in every rank's out, which must hold len(in) elements.
func (c *Ops) Allreduce(in, out []float64, op Op) error {
	if m := &c.allreduce; m.stale(0, 8*len(in)) {
		m.s = AllreduceSched(c.topo, c.rank, 8*len(in), c.alg)
	}
	return c.reduction("allreduce", c.allreduce.s, in, out, op, true)
}

// reduction runs a reduction schedule over a copy of in in the kept
// accumulator, which never aliases in or out (callers pass one slice for
// both); a rank the result is delivered to gets it in out.
func (c *Ops) reduction(name string, s Schedule, in, out []float64, op Op, deliver bool) error {
	if deliver && len(out) < len(in) {
		return c.x.Reject(name, fmt.Errorf("output holds %d elements, need %d", len(out), len(in)))
	}
	if c.acc == nil || cap(c.acc) < len(in) { // non-nil even for an empty in
		c.acc, c.enc = make([]float64, len(in)), make([]byte, 8*len(in))
	}
	acc := c.acc[:len(in)]
	copy(acc, in)
	if err := c.run(name, Plan{Sched: s, acc: acc, op: op, enc: c.enc[:8*len(in)]}); err != nil {
		return err
	}
	if deliver {
		copy(out, acc)
	}
	return nil
}

// barrierByte is every barrier's payload; executors only read it.
var barrierByte = []byte{1}

// Barrier blocks until every rank has entered it (a one-byte allreduce).
func (c *Ops) Barrier() error {
	if m := &c.barrier; m.stale(0, 1) {
		m.s = BarrierSched(c.topo, c.rank, c.alg)
	}
	return c.x.Run("barrier", Plan{Sched: c.barrier.s, send: barrierByte})
}

func (c *Ops) checkRoot(root int) error {
	if root < 0 || root >= c.topo.Size() {
		return fmt.Errorf("coll: root %d outside 0..%d", root, c.topo.Size()-1)
	}
	return nil
}
