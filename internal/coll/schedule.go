package coll

import "slices"

// Algorithm selects a schedule family.
type Algorithm int

const (
	// Auto picks topology-aware schedules: binomial trees across the
	// cluster map's leaders, a binomial tree / ring / recursive doubling
	// within one cluster.
	Auto Algorithm = iota
	// Linear is the naive flat baseline the figures compare against: the
	// root works through its peers one transfer per round, exactly the
	// shape of the old mpi loops.
	Linear
)

// Xfer is one point-to-point transfer of a schedule: a contiguous byte
// range exchanged with a peer.
type Xfer struct {
	Peer int // peer rank in the communicator
	Tag  int // wire matching tag; unique per (collective, origin, destination) message
	Off  int // local buffer offset (send: where to read; recv: where to place)
	Len  int // byte length
	// Combine marks a reduction-phase receive: the arriving vector is
	// folded into the local accumulator instead of replacing it.
	Combine bool
}

// Round groups the transfers one rank may overlap: every send and receive
// of a round is posted together, and round r+1 starts only after round
// r's receives have matched and its sends are on the wire.
type Round struct {
	Recvs []Xfer
	Sends []Xfer
}

// Schedule is one rank's communication program for one collective.
type Schedule struct {
	Rounds []Round
}

// NumSends and NumRecvs count the schedule's transfers.
func (s Schedule) NumSends() int {
	n := 0
	for _, r := range s.Rounds {
		n += len(r.Sends)
	}
	return n
}

func (s Schedule) NumRecvs() int {
	n := 0
	for _, r := range s.Rounds {
		n += len(r.Recvs)
	}
	return n
}

// append concatenates another schedule's rounds (phase composition: the
// executor's round barrier makes later phases wait for earlier ones).
func (s *Schedule) append(o Schedule) {
	s.Rounds = append(s.Rounds, o.Rounds...)
}

// withPeer stamps a payload template with the transfer's peer.
func withPeer(payload []Xfer, peer int) []Xfer {
	out := make([]Xfer, len(payload))
	for i, x := range payload {
		x.Peer = peer
		out[i] = x
	}
	return out
}

// binTree reports position vi's parent (-1 for the root) and children
// (largest subtree first) in the binomial tree over m ordered positions.
func binTree(m, vi int) (parent int, children []int) {
	mask := 1
	for mask < m && vi&mask == 0 {
		mask <<= 1
	}
	parent = -1
	if vi != 0 {
		parent = vi - mask
	}
	for c := mask >> 1; c >= 1; c >>= 1 {
		if vi+c < m {
			children = append(children, vi+c)
		}
	}
	return parent, children
}

// binSubtree reports the size of position vi's subtree.
func binSubtree(m, vi int) int {
	if vi == 0 {
		return m
	}
	mask := 1
	for vi&mask == 0 {
		mask <<= 1
	}
	if vi+mask > m {
		return m - vi
	}
	return mask
}

// span lists the positions of vi's subtree: [vi, vi+size).
func span(m, vi int) []int {
	sz := binSubtree(m, vi)
	out := make([]int, sz)
	for i := range out {
		out[i] = vi + i
	}
	return out
}

// treeDown emits the downward rounds (broadcast/scatter shape) for
// position vi of the ordered member list vs: at most one receive round
// from the parent, then one round of overlapped child sends. payloadOf
// maps a set of subtree positions to the transfer runs that carry it; for
// a broadcast it ignores the positions and returns the full payload.
func treeDown(s *Schedule, vs []int, vi int, payloadOf func(positions []int) []Xfer) {
	m := len(vs)
	parent, children := binTree(m, vi)
	if parent >= 0 {
		s.Rounds = append(s.Rounds, Round{Recvs: withPeer(payloadOf(span(m, vi)), vs[parent])})
	}
	if len(children) > 0 {
		var sends []Xfer
		for _, c := range children {
			sends = append(sends, withPeer(payloadOf(span(m, c)), vs[c])...)
		}
		s.Rounds = append(s.Rounds, Round{Sends: sends})
	}
}

// treeUp emits the upward rounds (gather/reduce shape): one round of
// overlapped child receives, then one send of the whole own subtree to
// the parent.
func treeUp(s *Schedule, vs []int, vi int, payloadOf func(positions []int) []Xfer) {
	m := len(vs)
	parent, children := binTree(m, vi)
	var recvs []Xfer
	for _, c := range children {
		recvs = append(recvs, withPeer(payloadOf(span(m, c)), vs[c])...)
	}
	if len(recvs) > 0 {
		s.Rounds = append(s.Rounds, Round{Recvs: recvs})
	}
	if parent >= 0 {
		s.Rounds = append(s.Rounds, Round{Sends: withPeer(payloadOf(span(m, vi)), vs[parent])})
	}
}

// blkRuns merges a set of ranks into contiguous-rank runs of blk-sized
// blocks of the canonical layout (block i at offset i*blk). Tag and Off
// are the run's canonical byte offset, so both ends of every edge derive
// identical transfers.
func blkRuns(ranks []int, blk int) []Xfer {
	rs := append([]int(nil), ranks...)
	slices.Sort(rs)
	var out []Xfer
	for i := 0; i < len(rs); {
		j := i + 1
		for j < len(rs) && rs[j] == rs[j-1]+1 {
			j++
		}
		out = append(out, Xfer{Tag: rs[i] * blk, Off: rs[i] * blk, Len: (j - i) * blk})
		i = j
	}
	return out
}

// ranksAt maps subtree positions of vs to their ranks.
func ranksAt(vs []int, positions []int) []int {
	out := make([]int, len(positions))
	for i, p := range positions {
		out[i] = vs[p]
	}
	return out
}

// BcastSched builds rank's schedule for a broadcast of nbytes from root.
// Auto: a binomial tree over the cluster leaders, then a binomial tree
// within each cluster. Linear: the root sends to each peer in turn.
func BcastSched(t *Topology, rank, root, nbytes int, alg Algorithm) Schedule {
	payload := []Xfer{{Tag: 0, Off: 0, Len: nbytes}}
	var s Schedule
	if alg == Linear {
		if rank == root {
			for r := 0; r < t.n; r++ {
				if r != root {
					s.Rounds = append(s.Rounds, Round{Sends: withPeer(payload, r)})
				}
			}
		} else {
			s.Rounds = append(s.Rounds, Round{Recvs: withPeer(payload, root)})
		}
		return s
	}
	full := func([]int) []Xfer { return payload }
	if t.NumClusters() > 1 {
		vsL := t.leaderList(root)
		if li := slices.Index(vsL, rank); li >= 0 {
			treeDown(&s, vsL, li, full)
		}
	}
	vsC := t.clusterList(t.of[rank], root)
	treeDown(&s, vsC, slices.Index(vsC, rank), full)
	return s
}

// GatherSched builds rank's schedule for gathering blk-byte blocks to
// root (canonical layout: block i at i*blk). Auto: a binomial gather to
// each cluster leader, then a binomial gather of cluster aggregates
// across the leaders. Linear: the root receives from each peer in turn.
func GatherSched(t *Topology, rank, root, blk int, alg Algorithm) Schedule {
	var s Schedule
	if alg == Linear {
		if rank == root {
			for r := 0; r < t.n; r++ {
				if r != root {
					s.Rounds = append(s.Rounds, Round{Recvs: withPeer(blkRuns([]int{r}, blk), r)})
				}
			}
		} else {
			s.Rounds = append(s.Rounds, Round{Sends: withPeer(blkRuns([]int{rank}, blk), root)})
		}
		return s
	}
	vsC := t.clusterList(t.of[rank], root)
	treeUp(&s, vsC, slices.Index(vsC, rank), func(pos []int) []Xfer {
		return blkRuns(ranksAt(vsC, pos), blk)
	})
	if t.NumClusters() > 1 {
		vsL := t.leaderList(root)
		if li := slices.Index(vsL, rank); li >= 0 {
			treeUp(&s, vsL, li, func(pos []int) []Xfer {
				var rs []int
				for _, p := range pos {
					rs = append(rs, t.clusterRanksOf(vsL[p])...)
				}
				return blkRuns(rs, blk)
			})
		}
	}
	return s
}

// ScatterSched is the mirror of GatherSched: root's blocks travel down
// the same trees.
func ScatterSched(t *Topology, rank, root, blk int, alg Algorithm) Schedule {
	var s Schedule
	if alg == Linear {
		if rank == root {
			for r := 0; r < t.n; r++ {
				if r != root {
					s.Rounds = append(s.Rounds, Round{Sends: withPeer(blkRuns([]int{r}, blk), r)})
				}
			}
		} else {
			s.Rounds = append(s.Rounds, Round{Recvs: withPeer(blkRuns([]int{rank}, blk), root)})
		}
		return s
	}
	if t.NumClusters() > 1 {
		vsL := t.leaderList(root)
		if li := slices.Index(vsL, rank); li >= 0 {
			treeDown(&s, vsL, li, func(pos []int) []Xfer {
				var rs []int
				for _, p := range pos {
					rs = append(rs, t.clusterRanksOf(vsL[p])...)
				}
				return blkRuns(rs, blk)
			})
		}
	}
	vsC := t.clusterList(t.of[rank], root)
	treeDown(&s, vsC, slices.Index(vsC, rank), func(pos []int) []Xfer {
		return blkRuns(ranksAt(vsC, pos), blk)
	})
	return s
}

// AllgatherSched builds rank's schedule for an allgather of blk-byte
// blocks. Auto within one cluster: the classic ring (n-1 rounds, each
// forwarding the block received in the previous one). Auto across
// clusters: a hierarchical gather to rank 0 followed by a broadcast of
// the full layout. Linear: gather + broadcast, both linear.
func AllgatherSched(t *Topology, rank, blk int, alg Algorithm) Schedule {
	n := t.n
	if alg == Auto && t.NumClusters() == 1 && n > 1 {
		var s Schedule
		next, prev := (rank+1)%n, (rank-1+n)%n
		for step := 0; step < n-1; step++ {
			sendBlk := (rank - step + n*n) % n
			recvBlk := (rank - step - 1 + n*n) % n
			s.Rounds = append(s.Rounds, Round{
				Sends: withPeer(blkRuns([]int{sendBlk}, blk), next),
				Recvs: withPeer(blkRuns([]int{recvBlk}, blk), prev),
			})
		}
		return s
	}
	s := GatherSched(t, rank, 0, blk, alg)
	s.append(BcastSched(t, rank, 0, n*blk, alg))
	return s
}

// AlltoallSched builds rank's schedule for an all-to-all of blk-byte
// blocks. Auto: a single fully overlapped round of pairwise exchanges —
// send i's block carries the tag of its position in the receiver's
// layout, so Off is the local read offset (block dest*blk of the caller's
// in) while Tag names the landing block (block rank*blk of the
// receiver's out). Linear: one pairwise exchange per round, the old
// stepwise ring.
func AlltoallSched(t *Topology, rank, blk int, alg Algorithm) Schedule {
	n := t.n
	var s Schedule
	if alg == Linear {
		for step := 1; step < n; step++ {
			to, from := (rank+step)%n, (rank-step+n)%n
			s.Rounds = append(s.Rounds, Round{
				Sends: []Xfer{{Peer: to, Tag: rank * blk, Off: to * blk, Len: blk}},
				Recvs: []Xfer{{Peer: from, Tag: from * blk, Off: from * blk, Len: blk}},
			})
		}
		return s
	}
	var r Round
	for step := 1; step < n; step++ {
		to, from := (rank+step)%n, (rank-step+n)%n
		r.Sends = append(r.Sends, Xfer{Peer: to, Tag: rank * blk, Off: to * blk, Len: blk})
		r.Recvs = append(r.Recvs, Xfer{Peer: from, Tag: from * blk, Off: from * blk, Len: blk})
	}
	if len(r.Sends) > 0 || len(r.Recvs) > 0 {
		s.Rounds = append(s.Rounds, r)
	}
	return s
}

// AlltoallvSched is the sparse variant driving the MoE workloads: rank
// sends sendCounts[d] bytes to each d and receives recvCounts[o] bytes
// from each o, zero counts skipped. Offsets are the count prefix sums on
// each side; one message per pair makes the pair itself the identity, so
// every tag is zero.
func AlltoallvSched(t *Topology, rank int, sendCounts, recvCounts []int, alg Algorithm) Schedule {
	var b schedBuf
	return alltoallvInto(&b, t, rank, sendCounts, recvCounts, alg)
}

// schedBuf is the storage a schedule is rebuilt into.
type schedBuf struct {
	rounds []Round
	xfers  []Xfer
}

// alltoallvInto builds AlltoallvSched's schedule in b's storage. The
// schedule's slices are views of it, nil where empty (as a fresh build
// leaves them), so a rebuild allocates nothing once b has grown to the
// largest schedule seen; it overwrites the previous build's schedule.
func alltoallvInto(b *schedBuf, t *Topology, rank int, sendCounts, recvCounts []int, alg Algorithm) Schedule {
	n := t.n
	if cap(b.xfers) < 2*(n-1) { // every send and receive: no append moves a view
		b.xfers = make([]Xfer, 0, 2*(n-1))
	}
	xs, rounds := b.xfers[:0], b.rounds[:0]
	// The offsets are running prefix sums in step order: sends walk to
	// rank+1, rank+2, ... wrapping to 0; receives walk down from rank-1,
	// wrapping to n-1.
	soff, roff, rtot := 0, 0, 0
	for i, c := range recvCounts {
		if i < rank {
			roff += c
		}
		rtot += c
	}
	for _, c := range sendCounts[:rank+1] {
		soff += c
	}
	view := func(from int) []Xfer {
		if len(xs) == from {
			return nil
		}
		return xs[from:len(xs):len(xs)]
	}
	per := n - 1 // Auto: one fully overlapped round
	if alg == Linear {
		per = 1
	}
	for first := 1; first < n; first += per {
		last := min(first+per, n)
		mark := len(xs)
		for step := first; step < last; step++ {
			to := (rank + step) % n
			if to == 0 {
				soff = 0
			}
			if sendCounts[to] > 0 {
				xs = append(xs, Xfer{Peer: to, Tag: 0, Off: soff, Len: sendCounts[to]})
			}
			soff += sendCounts[to]
		}
		sends := view(mark)
		mark = len(xs)
		for step := first; step < last; step++ {
			from := (rank - step + n) % n
			if from == n-1 {
				roff = rtot
			}
			roff -= recvCounts[from]
			if recvCounts[from] > 0 {
				xs = append(xs, Xfer{Peer: from, Tag: 0, Off: roff, Len: recvCounts[from]})
			}
		}
		if recvs := view(mark); sends != nil || recvs != nil {
			rounds = append(rounds, Round{Recvs: recvs, Sends: sends})
		}
	}
	b.xfers, b.rounds = xs, rounds
	if len(rounds) == 0 {
		return Schedule{}
	}
	return Schedule{Rounds: rounds}
}

// ReduceSched builds rank's schedule for reducing an nbytes vector to
// root: the gather trees with full-vector payloads, receives marked
// Combine. Linear: the root folds one contribution per round.
func ReduceSched(t *Topology, rank, root, nbytes int, alg Algorithm) Schedule {
	recv := []Xfer{{Tag: 0, Off: 0, Len: nbytes, Combine: true}}
	send := []Xfer{{Tag: 0, Off: 0, Len: nbytes}}
	var s Schedule
	if alg == Linear {
		if rank == root {
			for r := 0; r < t.n; r++ {
				if r != root {
					s.Rounds = append(s.Rounds, Round{Recvs: withPeer(recv, r)})
				}
			}
		} else {
			s.Rounds = append(s.Rounds, Round{Sends: withPeer(send, root)})
		}
		return s
	}
	up := func(s *Schedule, vs []int, vi int) {
		parent, children := binTree(len(vs), vi)
		var recvs []Xfer
		for _, c := range children {
			recvs = append(recvs, withPeer(recv, vs[c])...)
		}
		if len(recvs) > 0 {
			s.Rounds = append(s.Rounds, Round{Recvs: recvs})
		}
		if parent >= 0 {
			s.Rounds = append(s.Rounds, Round{Sends: withPeer(send, vs[parent])})
		}
	}
	vsC := t.clusterList(t.of[rank], root)
	up(&s, vsC, slices.Index(vsC, rank))
	if t.NumClusters() > 1 {
		vsL := t.leaderList(root)
		if li := slices.Index(vsL, rank); li >= 0 {
			up(&s, vsL, li)
		}
	}
	return s
}

// AllreduceSched builds rank's schedule for an allreduce of an nbytes
// vector. Auto on one power-of-two cluster: recursive doubling (log2 n
// rounds of paired exchange+combine). Otherwise: reduce to rank 0, then
// broadcast — both phases topology-aware under Auto.
func AllreduceSched(t *Topology, rank, nbytes int, alg Algorithm) Schedule {
	n := t.n
	if alg == Auto && t.NumClusters() == 1 && n > 1 && n&(n-1) == 0 {
		var s Schedule
		for bit := 1; bit < n; bit <<= 1 {
			partner := rank ^ bit
			s.Rounds = append(s.Rounds, Round{
				Sends: []Xfer{{Peer: partner, Tag: 0, Off: 0, Len: nbytes}},
				Recvs: []Xfer{{Peer: partner, Tag: 0, Off: 0, Len: nbytes, Combine: true}},
			})
		}
		return s
	}
	s := ReduceSched(t, rank, 0, nbytes, alg)
	s.append(BcastSched(t, rank, 0, nbytes, alg))
	return s
}

// BarrierSched synchronizes via a one-byte allreduce.
func BarrierSched(t *Topology, rank int, alg Algorithm) Schedule {
	return AllreduceSched(t, rank, 1, alg)
}
