package coll_test

import (
	"reflect"
	"testing"

	"madeleine2/internal/coll"
)

// llmCounts are a rank's two Alltoallv count vectors of an LLM-serving
// step on n ranks, sized by unit: the MoE routing table (about a third of
// the pairs routed, 1..4 units each) and one prefill→decode chunk from
// each rank of the first half to its peer in the second.
func llmCounts(rank, n, unit int) (moeSend, moeRecv, kvSend, kvRecv []int) {
	moe := func(src, dst int) int {
		if src != dst && (src+dst)%3 == 0 {
			return unit * (1 + (src+2*dst)%4)
		}
		return 0
	}
	moeSend, moeRecv = make([]int, n), make([]int, n)
	kvSend, kvRecv = make([]int, n), make([]int, n)
	for p := 0; p < n; p++ {
		moeSend[p], moeRecv[p] = moe(rank, p), moe(p, rank)
	}
	if half := n / 2; rank < half {
		kvSend[rank+half] = 4 * unit
	} else {
		kvRecv[rank-half] = 4 * unit
	}
	return moeSend, moeRecv, kvSend, kvRecv
}

// sum totals a count vector.
func sum(counts []int) int {
	t := 0
	for _, c := range counts {
		t += c
	}
	return t
}

// recordExec runs nothing and keeps the schedule of the last call.
type recordExec struct {
	calls int
	last  coll.Schedule
}

func (r *recordExec) Run(_ string, p coll.Plan) error {
	r.calls++
	r.last = p.Sched
	return nil
}

func (r *recordExec) Reject(_ string, err error) error { return err }

// TestScheduleMemo alternates argument sets on one Ops per rank and
// requires every call to hand its executor exactly the schedule a fresh
// generator call builds: a memo hit must match its key, a miss (and an
// Alltoallv rebuilt in place) must not keep anything of the previous
// build. The caller's count vectors are overwritten between calls, so a
// key that aliased them instead of copying would go stale unnoticed.
func TestScheduleMemo(t *testing.T) {
	const n = 8
	gw, err := coll.FromClusters(n, [][]int{{0, 1, 2, 3, 4}, {4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	topos := map[string]*coll.Topology{"flat-8": coll.SingleCluster(n), "gw-8": gw}
	// (root, size) sets: a root change, then a size change.
	roots, sizes := []int{0, 5, 5}, []int{64, 64, 200}
	seq := []int{0, 0, 1, 2, 1, 0, 2, 2}
	const maxSize = 200
	for tname, topo := range topos {
		for _, alg := range []coll.Algorithm{coll.Auto, coll.Linear} {
			for rank := 0; rank < n; rank++ {
				rec := &recordExec{}
				ops := coll.NewOps(rec, topo, rank, alg)
				blk, big := make([]byte, maxSize), make([]byte, n*maxSize)
				vec := make([]float64, maxSize/8)
				moeS, moeR, kvS, kvR := llmCounts(rank, n, 16)
				countSets := [][2][]int{{moeS, moeR}, {kvS, kvR}, {moeS, moeR}}
				sc, rc := make([]int, n), make([]int, n) // the caller's vectors, rewritten per call
				a2avIn := make([]byte, max(sum(moeS), sum(kvS)))
				a2avOut := make([]byte, max(sum(moeR), sum(kvR)))
				cur := 0 // the argument set of the call under test
				cases := []struct {
					name string
					call func(root, size int) error
					want func(root, size int) coll.Schedule
				}{
					{"bcast",
						func(root, size int) error { return ops.Bcast(root, blk[:size]) },
						func(root, size int) coll.Schedule { return coll.BcastSched(topo, rank, root, size, alg) }},
					{"gather",
						func(root, size int) error { return ops.Gather(root, blk[:size], big) },
						func(root, size int) coll.Schedule { return coll.GatherSched(topo, rank, root, size, alg) }},
					{"scatter",
						func(root, size int) error { return ops.Scatter(root, big, blk[:size]) },
						func(root, size int) coll.Schedule { return coll.ScatterSched(topo, rank, root, size, alg) }},
					{"allgather",
						func(_, size int) error { return ops.Allgather(blk[:size], big) },
						func(_, size int) coll.Schedule { return coll.AllgatherSched(topo, rank, size, alg) }},
					{"alltoall",
						func(_, size int) error { return ops.Alltoall(big[:n*size], make([]byte, n*size)) },
						func(_, size int) coll.Schedule { return coll.AlltoallSched(topo, rank, size, alg) }},
					{"alltoallv",
						func(int, int) error {
							copy(sc, countSets[cur][0])
							copy(rc, countSets[cur][1])
							err := ops.Alltoallv(a2avIn, sc, a2avOut, rc)
							for i := range sc {
								sc[i], rc[i] = -1, -1
							}
							return err
						},
						func(int, int) coll.Schedule {
							return coll.AlltoallvSched(topo, rank, countSets[cur][0], countSets[cur][1], alg)
						}},
					{"reduce",
						func(root, size int) error { return ops.Reduce(root, vec[:size/8], vec[:size/8], coll.Sum) },
						func(root, size int) coll.Schedule { return coll.ReduceSched(topo, rank, root, size, alg) }},
					{"allreduce",
						func(_, size int) error { return ops.Allreduce(vec[:size/8], vec[:size/8], coll.Max) },
						func(_, size int) coll.Schedule { return coll.AllreduceSched(topo, rank, size, alg) }},
					{"barrier",
						func(int, int) error { return ops.Barrier() },
						func(int, int) coll.Schedule { return coll.BarrierSched(topo, rank, alg) }},
				}
				for _, tc := range cases {
					for i, set := range seq {
						cur = set
						root, size := roots[set], sizes[set]
						calls := rec.calls
						if err := tc.call(root, size); err != nil {
							t.Fatalf("%s alg %d rank %d %s call %d: %v", tname, alg, rank, tc.name, i, err)
						}
						if rec.calls != calls+1 {
							t.Fatalf("%s alg %d rank %d %s call %d never reached the executor", tname, alg, rank, tc.name, i)
						}
						if want := tc.want(root, size); !reflect.DeepEqual(rec.last, want) {
							t.Fatalf("%s alg %d rank %d %s call %d (root %d size %d):\n got %+v\nwant %+v",
								tname, alg, rank, tc.name, i, root, size, rec.last, want)
						}
					}
				}
			}
		}
	}
}
