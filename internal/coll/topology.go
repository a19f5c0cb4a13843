// Package coll is the collective-communication layer over madeleine
// channels: broadcast, scatter/gather, allgather, all-to-all and
// reduce/allreduce, scheduled topology-aware. A schedule generator turns
// the world's cluster map (one cluster per forwarding segment) into a
// per-rank program of rounds — binomial trees across clusters, a ring or
// recursive doubling within one — and an executor drives the program
// through per-peer send and receive worker threads, on a plain or a
// virtual channel alike, so one rank's sends and receives overlap instead
// of serializing.
package coll

import (
	"fmt"
	"slices"
)

// Topology is a communicator's cluster map: a partition of the dense rank
// space 0..n-1 into clusters, one per physical fabric segment. A gateway
// rank that bridges two segments belongs, for scheduling purposes, to the
// last segment that lists it, and leader selection prefers members the
// root's own fabric reaches natively — together these route a
// hierarchical schedule's cross-cluster edge onto a multi-homed rank
// whenever one exists, so both the edge and the remote cluster's
// fan-out are single-fabric transfers instead of store-and-forward
// pipelines through a gateway.
type Topology struct {
	n        int
	clusters [][]int // cluster -> member ranks, sorted; a partition of 0..n-1
	of       []int   // rank -> cluster index
	rawSegs  [][]int // original per-segment member lists (gateways in all)
}

// SingleCluster is the flat topology: every rank on one fabric.
func SingleCluster(n int) *Topology {
	ranks := make([]int, n)
	of := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return &Topology{n: n, clusters: [][]int{ranks}, of: of}
}

// FromClusters builds a topology from per-segment member lists over the
// dense rank space 0..n-1. A rank listed by several segments (a gateway)
// is assigned to the last — heading the far cluster, where the near
// fabric still reaches it directly (see leader); every rank must appear
// in at least one.
func FromClusters(n int, segs [][]int) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("coll: topology over %d ranks", n)
	}
	seen := make([]bool, n)
	last := make([]int, n) // rank -> index of the last segment listing it
	for si, seg := range segs {
		for _, r := range seg {
			if r < 0 || r >= n {
				return nil, fmt.Errorf("coll: rank %d outside 0..%d", r, n-1)
			}
			seen[r] = true
			last[r] = si
		}
	}
	for r, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("coll: rank %d is in no cluster", r)
		}
	}
	of := make([]int, n)
	placed := make([]bool, n)
	clusters := make([][]int, 0, len(segs))
	for si, seg := range segs {
		var c []int
		for _, r := range seg {
			if last[r] == si && !placed[r] {
				placed[r] = true
				c = append(c, r)
			}
		}
		if len(c) > 0 { // a segment of nothing but gateways vanishes
			for _, r := range c {
				of[r] = len(clusters)
			}
			clusters = append(clusters, c)
		}
	}
	for _, c := range clusters {
		slices.Sort(c)
	}
	raw := make([][]int, len(segs))
	for i, seg := range segs {
		raw[i] = append([]int(nil), seg...)
	}
	return &Topology{n: n, clusters: clusters, of: of, rawSegs: raw}, nil
}

// Size reports the number of ranks.
func (t *Topology) Size() int { return t.n }

// NumClusters reports the number of clusters in the partition.
func (t *Topology) NumClusters() int { return len(t.clusters) }

// ClusterOf reports the (primary) cluster index of a rank.
func (t *Topology) ClusterOf(rank int) int { return t.of[rank] }

// leader picks the cluster's representative for a collective rooted at
// root: the root itself in its own cluster; elsewhere the lowest member
// the root's fabric reaches natively (a shared raw segment — typically
// the gateway rank), then the lowest multi-homed member, then the lowest
// member. Every rank computes the same answer — the schedules depend on
// it.
func (t *Topology) leader(cluster, root int) int {
	if t.of[root] == cluster {
		return root
	}
	for _, r := range t.clusters[cluster] {
		if t.sharesSeg(r, root) {
			return r
		}
	}
	for _, r := range t.clusters[cluster] {
		if t.segCount(r) > 1 {
			return r
		}
	}
	return t.clusters[cluster][0]
}

// sharesSeg reports whether two ranks appear in one raw segment list.
func (t *Topology) sharesSeg(a, b int) bool {
	for _, seg := range t.rawSegs {
		var hasA, hasB bool
		for _, r := range seg {
			hasA = hasA || r == a
			hasB = hasB || r == b
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// segCount reports how many raw segments list a rank.
func (t *Topology) segCount(rank int) int {
	n := 0
	for _, seg := range t.rawSegs {
		for _, r := range seg {
			if r == rank {
				n++
				break
			}
		}
	}
	return n
}

// leaderList orders every cluster leader with the root first — the member
// list of the cross-cluster phase of a hierarchical schedule.
func (t *Topology) leaderList(root int) []int {
	vs := []int{root}
	for c := range t.clusters {
		if c == t.of[root] {
			continue
		}
		vs = append(vs, t.leader(c, root))
	}
	return vs
}

// clusterList orders a cluster's members with its leader first — the
// member list of the intra-cluster phase.
func (t *Topology) clusterList(cluster, root int) []int {
	lead := t.leader(cluster, root)
	vs := []int{lead}
	for _, r := range t.clusters[cluster] {
		if r != lead {
			vs = append(vs, r)
		}
	}
	return vs
}

// clusterRanksOf reports the member ranks of the leader's cluster (the
// payload unit of the cross-cluster gather/scatter phases).
func (t *Topology) clusterRanksOf(leader int) []int {
	return t.clusters[t.of[leader]]
}
