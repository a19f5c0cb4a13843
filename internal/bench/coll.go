package bench

import (
	"fmt"
	"sync"

	"madeleine2/internal/bip"
	"madeleine2/internal/coll"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// Topology-aware collectives and LLM-fabric traffic worlds. CollClusters
// is the 8-rank two-cluster testbed (SCI cluster {0..4}, Myrinet cluster
// {4..7}, rank 4 the gateway) the schedules target: a cross-cluster
// transfer rides the forwarding gateway, so every boundary crossing a
// schedule avoids is a gateway pipeline it never pays for. CollFigure
// measures the topology-aware schedules against the naive linear
// baseline on that world; LLMFigure stacks the three traffic patterns of
// a disaggregated LLM serving fabric — MoE sparse all-to-all, KV-cache
// prefill→decode streams, incast gather — on the same world behind a
// lossy fault plan and the reliable forwarding mode.

// CollNodes is the rank count of the collective worlds.
const CollNodes = 8

// CollClusters builds the two-cluster collective world. A FaultPlan (nil
// for a clean fabric) arms every adapter before any channel exists;
// reliable mode keeps the virtual channel correct under it.
func CollClusters(name string, plan *simnet.FaultPlan, reliable bool) (map[int]*fwd.VC, error) {
	w := simnet.NewWorld(CollNodes)
	for _, r := range []int{0, 1, 2, 3, 4} {
		w.Node(r).AddAdapter(sisci.Network)
	}
	for _, r := range []int{4, 5, 6, 7} {
		w.Node(r).AddAdapter(bip.Network)
	}
	for r := 0; r < CollNodes; r++ {
		w.Node(r).AddAdapter(tcpnet.Network)
	}
	sess := core.NewSession(w)
	for _, a := range w.Adapters() {
		a.SetFaults(plan)
	}
	return fwd.New(sess, fwd.Spec{
		Name:     name,
		Reliable: reliable,
		Segments: []core.ChannelSpec{
			{Driver: "sisci", Nodes: []int{0, 1, 2, 3, 4}},
			{Driver: "bip", Nodes: []int{4, 5, 6, 7}},
		},
	})
}

// CollComms wraps every rank's virtual-channel handle into a collective
// communicator (which owns the handle: closing the communicators closes
// the channel).
func CollComms(vcs map[int]*fwd.VC, opts coll.Options) ([]*coll.Comm, error) {
	out := make([]*coll.Comm, len(vcs))
	for node, vc := range vcs {
		c, err := coll.OverVC(vc, opts)
		if err != nil {
			return nil, err
		}
		out[node] = c
	}
	return out, nil
}

// CloseComms shuts a communicator set down.
func CloseComms(cs []*coll.Comm) {
	for _, c := range cs {
		if c != nil {
			c.Close()
		}
	}
}

// runRanks drives body on every rank concurrently and reports the
// makespan: the latest rank's virtual completion time. Every communicator
// starts at the virtual epoch, so on a fresh world the makespan IS the
// workload's end-to-end time.
func runRanks(cs []*coll.Comm, body func(c *coll.Comm) error) (vclock.Time, error) {
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *coll.Comm) {
			defer wg.Done()
			errs[i] = body(c)
		}(i, c)
	}
	wg.Wait()
	var makespan vclock.Time
	for i, c := range cs {
		if errs[i] != nil {
			return 0, fmt.Errorf("rank %d: %w", i, errs[i])
		}
		if t := c.Now(); t > makespan {
			makespan = t
		}
	}
	return makespan, nil
}

// collPoint builds a fresh two-cluster world, runs one collective on it
// and reports the makespan.
func collPoint(alg coll.Algorithm, name string, body func(c *coll.Comm) error) (vclock.Time, error) {
	vcs, err := CollClusters(NextName(name), nil, false)
	if err != nil {
		return 0, err
	}
	cs, err := CollComms(vcs, coll.Options{Alg: alg, Name: name})
	if err != nil {
		CloseVCs(vcs)
		return 0, err
	}
	defer CloseComms(cs)
	return runRanks(cs, body)
}

// collFill is the deterministic payload pattern the workloads verify.
func collFill(rank, i int) byte { return byte(rank*131 + i*7) }

// CollBcastSizes is the broadcast sweep of the coll figure.
var CollBcastSizes = []int{4 << 10, 64 << 10, 256 << 10, 1 << 20}

// CollFigure measures the topology-aware schedules against the naive
// linear baseline on the two-cluster world: a cross-cluster broadcast
// sweep (the Auto schedule crosses the gateway once; Linear once per
// remote rank) and an allgather. The headline anchor is the Auto-vs-
// Linear broadcast speedup at the largest size.
func CollFigure() (Result, error) {
	res := Result{
		ID:    "coll",
		Title: "Topology-aware collectives vs. linear baseline (8 ranks, 2 clusters)",
		Notes: "SCI {0..4} + Myrinet {4..7} behind a forwarding gateway (rank 4); " +
			"each point is the makespan (latest rank's virtual completion) of one broadcast from rank 0, " +
			"on a fresh world so clocks start at the epoch. Auto derives the cluster map from the " +
			"virtual channel and crosses the boundary once per remote cluster; Linear is the old " +
			"one-peer-per-round loop. The x anchors are display-only ratios.",
	}
	auto := Series{Name: "bcast auto (topology-aware)"}
	linear := Series{Name: "bcast linear baseline"}
	var speedup float64
	for _, n := range CollBcastSizes {
		buf := make([]byte, n)
		body := func(c *coll.Comm) error {
			if c.Rank() == 0 {
				for i := range buf {
					buf[i] = collFill(0, i)
				}
				return c.Bcast(0, buf)
			}
			dst := make([]byte, n)
			if err := c.Bcast(0, dst); err != nil {
				return err
			}
			for i := range dst {
				if dst[i] != collFill(0, i) {
					return fmt.Errorf("bcast byte %d torn", i)
				}
			}
			return nil
		}
		ta, err := collPoint(coll.Auto, "coll-bcast-auto", body)
		if err != nil {
			return res, fmt.Errorf("bench: auto bcast %d B: %w", n, err)
		}
		tl, err := collPoint(coll.Linear, "coll-bcast-linear", body)
		if err != nil {
			return res, fmt.Errorf("bench: linear bcast %d B: %w", n, err)
		}
		auto.Points = append(auto.Points, Point{Size: n, OneWay: ta})
		linear.Points = append(linear.Points, Point{Size: n, OneWay: tl})
		if ta > 0 {
			speedup = float64(tl) / float64(ta)
		}
	}
	res.Anchors = append(res.Anchors, Anchor{
		Name:     fmt.Sprintf("bcast speedup auto/linear @ %d KiB", CollBcastSizes[len(CollBcastSizes)-1]>>10),
		Measured: speedup,
		Unit:     "x (>=2 expected)",
	})

	const agBlk = 32 << 10
	agBody := func(c *coll.Comm) error {
		in := make([]byte, agBlk)
		for i := range in {
			in[i] = collFill(c.Rank(), i)
		}
		out := make([]byte, CollNodes*agBlk)
		if err := c.Allgather(in, out); err != nil {
			return err
		}
		for r := 0; r < CollNodes; r++ {
			for i := 0; i < agBlk; i += 997 { // spot-check every block
				if out[r*agBlk+i] != collFill(r, i) {
					return fmt.Errorf("allgather block %d byte %d torn", r, i)
				}
			}
		}
		return nil
	}
	ta, err := collPoint(coll.Auto, "coll-ag-auto", agBody)
	if err != nil {
		return res, fmt.Errorf("bench: auto allgather: %w", err)
	}
	tl, err := collPoint(coll.Linear, "coll-ag-linear", agBody)
	if err != nil {
		return res, fmt.Errorf("bench: linear allgather: %w", err)
	}
	res.Series = []Series{auto, linear,
		{Name: "allgather auto", Points: []Point{{Size: agBlk, OneWay: ta}}},
		{Name: "allgather linear baseline", Points: []Point{{Size: agBlk, OneWay: tl}}},
	}
	if ta > 0 {
		res.Anchors = append(res.Anchors, Anchor{
			Name:     "allgather speedup auto/linear @ 32 KiB blocks",
			Measured: float64(tl) / float64(ta),
			Unit:     "x",
		})
	}
	return res, nil
}

// LLMFaultPlan is the lossy fabric the LLM worlds run behind (with the
// reliable forwarding mode, so the faults are survived, not fatal).
var LLMFaultPlan = &simnet.FaultPlan{Seed: 11, Corrupt: 0.005, Drop: 0.005}

// moeCount is the deterministic MoE routing table: bytes rank src ships
// to expert dst per layer (zero for pairs the router never picks — the
// sparsity is the point of Alltoallv).
func moeCount(src, dst int) int {
	if src == dst || (src+dst)%3 != 0 {
		return 0
	}
	return (4 << 10) * (1 + (src+2*dst)%4)
}

// MoELayers is the number of routed layers of the MoE world.
const MoELayers = 4

// llmWorld builds a fresh lossy two-cluster world and runs one LLM
// traffic pattern to completion, reporting makespan and checking that no
// rank's communicator was poisoned.
func llmWorld(name string, body func(c *coll.Comm) error) (vclock.Time, error) {
	vcs, err := CollClusters(NextName(name), LLMFaultPlan, true)
	if err != nil {
		return 0, err
	}
	cs, err := CollComms(vcs, coll.Options{Alg: coll.Auto, Name: name})
	if err != nil {
		CloseVCs(vcs)
		return 0, err
	}
	defer CloseComms(cs)
	makespan, err := runRanks(cs, body)
	if err != nil {
		return 0, err
	}
	for r, c := range cs {
		if perr := c.Err(); perr != nil {
			return 0, fmt.Errorf("rank %d poisoned: %w", r, perr)
		}
	}
	return makespan, nil
}

// MoEWorld runs MoELayers rounds of the expert-parallel exchange: a
// sparse all-to-all per layer (token routing) followed by a small
// allreduce (the router statistics sync), every payload verified at the
// receiver. It reports the makespan and the per-rank aggregate bytes
// routed.
func MoEWorld(c *coll.Comm) (int, error) {
	n := c.Size()
	rank := c.Rank()
	sendCounts := make([]int, n)
	recvCounts := make([]int, n)
	stot, rtot := 0, 0
	for d := 0; d < n; d++ {
		sendCounts[d] = moeCount(rank, d)
		recvCounts[d] = moeCount(d, rank)
		stot += sendCounts[d]
		rtot += recvCounts[d]
	}
	in := make([]byte, stot)
	out := make([]byte, rtot)
	stats := make([]float64, 8)
	moved := 0
	for layer := 0; layer < MoELayers; layer++ {
		off := 0
		for d := 0; d < n; d++ {
			for i := 0; i < sendCounts[d]; i++ {
				in[off+i] = collFill(rank*16+d, i+layer)
			}
			off += sendCounts[d]
		}
		if err := c.Alltoallv(in, sendCounts, out, recvCounts); err != nil {
			return moved, fmt.Errorf("layer %d alltoallv: %w", layer, err)
		}
		off = 0
		for o := 0; o < n; o++ {
			for i := 0; i < recvCounts[o]; i++ {
				if out[off+i] != collFill(o*16+rank, i+layer) {
					return moved, fmt.Errorf("layer %d: block from %d torn at byte %d", layer, o, i)
				}
			}
			off += recvCounts[o]
		}
		moved += stot
		for i := range stats {
			stats[i] = float64(rank + layer + i)
		}
		if err := c.Allreduce(stats, stats, coll.Sum); err != nil {
			return moved, fmt.Errorf("layer %d allreduce: %w", layer, err)
		}
	}
	return moved, nil
}

// KVChunk and KVChunks shape the prefill→decode streams: each prefill
// rank pushes KVChunks chunks of KVChunk bytes to its decode peer.
const (
	KVChunk  = 64 << 10
	KVChunks = 3
)

// PrefillDecodeWorld runs the disaggregated-serving transfer pattern:
// prefill ranks {0..3} (the SCI cluster) stream KV-cache chunks across
// the gateway to decode ranks {4..7} (the Myrinet cluster), expressed as
// sparse exchanges so the schedules route them. Decode ranks verify
// every chunk byte-identical.
func PrefillDecodeWorld(c *coll.Comm) error {
	n := c.Size()
	rank := c.Rank()
	half := n / 2
	sendCounts := make([]int, n)
	recvCounts := make([]int, n)
	if rank < half {
		sendCounts[rank+half] = KVChunk
	} else {
		recvCounts[rank-half] = KVChunk
	}
	in := make([]byte, KVChunk)
	out := make([]byte, KVChunk)
	for chunk := 0; chunk < KVChunks; chunk++ {
		if rank < half {
			for i := range in {
				in[i] = collFill(rank*8+chunk, i)
			}
		}
		if err := c.Alltoallv(in, sendCounts, out, recvCounts); err != nil {
			return fmt.Errorf("chunk %d: %w", chunk, err)
		}
		if rank >= half {
			src := rank - half
			for i := range out {
				if out[i] != collFill(src*8+chunk, i) {
					return fmt.Errorf("chunk %d from %d torn at byte %d", chunk, src, i)
				}
			}
		}
	}
	return nil
}

// IncastBlk and IncastRounds shape the incast world: every rank pushes
// IncastBlk bytes to rank 0 per round (the classic fan-in hotspot).
const (
	IncastBlk    = 32 << 10
	IncastRounds = 2
)

// IncastWorld gathers every rank's block at rank 0 repeatedly, verifying
// the assembled layout.
func IncastWorld(c *coll.Comm) error {
	n := c.Size()
	rank := c.Rank()
	in := make([]byte, IncastBlk)
	var out []byte
	if rank == 0 {
		out = make([]byte, n*IncastBlk)
	}
	for round := 0; round < IncastRounds; round++ {
		for i := range in {
			in[i] = collFill(rank+round*64, i)
		}
		if err := c.Gather(0, in, out); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if rank == 0 {
			for r := 0; r < n; r++ {
				for i := 0; i < IncastBlk; i += 499 {
					if out[r*IncastBlk+i] != collFill(r+round*64, i) {
						return fmt.Errorf("round %d block %d torn at byte %d", round, r, i)
					}
				}
			}
		}
	}
	return nil
}

// LLMFigure runs the three LLM-fabric traffic worlds on the lossy
// two-cluster fabric behind the reliable forwarding mode: every workload
// must complete with byte-identical payloads and no poisoned
// communicator.
func LLMFigure() (Result, error) {
	res := Result{
		ID:    "llm",
		Title: "LLM-fabric traffic worlds under loss (reliable fwd, topology-aware schedules)",
		Notes: fmt.Sprintf("8-rank two-cluster world behind FaultPlan{Corrupt: %.3f, Drop: %.3f} with the "+
			"reliable forwarding mode; every payload is verified byte-identical at the receiver and every "+
			"communicator must finish unpoisoned. MoE: %d layers of sparse all-to-all + router allreduce; "+
			"prefill→decode: %d KV chunks of %d KiB per cross-cluster pair; incast: %d rounds of %d KiB "+
			"blocks fanning into rank 0.",
			LLMFaultPlan.Corrupt, LLMFaultPlan.Drop, MoELayers, KVChunks, KVChunk>>10, IncastRounds, IncastBlk>>10),
	}
	var moeBytes int
	var mu sync.Mutex
	tMoE, err := llmWorld("llm-moe", func(c *coll.Comm) error {
		moved, err := MoEWorld(c)
		mu.Lock()
		moeBytes += moved
		mu.Unlock()
		return err
	})
	if err != nil {
		return res, fmt.Errorf("bench: moe world: %w", err)
	}
	tPD, err := llmWorld("llm-prefill-decode", PrefillDecodeWorld)
	if err != nil {
		return res, fmt.Errorf("bench: prefill-decode world: %w", err)
	}
	tIn, err := llmWorld("llm-incast", IncastWorld)
	if err != nil {
		return res, fmt.Errorf("bench: incast world: %w", err)
	}
	res.Series = []Series{
		{Name: "MoE sparse all-to-all", Points: []Point{{Size: moeBytes, OneWay: tMoE}}},
		{Name: "prefill→decode KV streams", Points: []Point{{Size: 4 * KVChunks * KVChunk, OneWay: tPD}}},
		{Name: "incast gather", Points: []Point{{Size: (CollNodes - 1) * IncastRounds * IncastBlk, OneWay: tIn}}},
	}
	if tMoE > 0 {
		res.Anchors = append(res.Anchors, Anchor{
			Name:     "MoE routed bandwidth under loss",
			Measured: vclock.MBps(moeBytes, tMoE),
			Unit:     "MB/s",
		})
	}
	if tPD > 0 {
		res.Anchors = append(res.Anchors, Anchor{
			Name:     "prefill→decode stream bandwidth under loss",
			Measured: vclock.MBps(4*KVChunks*KVChunk, tPD),
			Unit:     "MB/s",
		})
	}
	return res, nil
}
