package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"madeleine2/internal/coll"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// llm_lossy: the three traffic patterns of a disaggregated LLM-serving
// fabric on the 8-rank two-cluster world (SCI {0..4} + Myrinet {4..7},
// rank 4 the gateway), over a reliable virtual channel on a lossy fabric,
// with the topology-aware schedules. One operation is one step:
//
//   - MoE: llmLayers layers of a size-skewed sparse Alltoallv (token
//     routing) each followed by an 8-float Allreduce (router statistics);
//   - prefill→decode: llmKVChunks chunks of llmKVChunk bytes from every
//     rank of the first half to its peer in the second half;
//   - incast: llmIncasts Gathers of llmIncastBlk bytes per rank to rank 0.
//
// The routing table, the payloads and the fault plan come from the seed.

const (
	llmRanks     = 8
	llmLayers    = 4
	llmKVChunk   = 64 << 10
	llmKVChunks  = 3
	llmIncastBlk = 32 << 10
	llmIncasts   = 2
	llmStats     = 8
)

// llmRank is one rank's communicator, buffers and goroutine state, all
// allocated in set-up.
type llmRank struct {
	c    *coll.Comm
	rank int
	sp   *spanBuf

	moeSend, moeRecv []int // bytes to / from each peer per layer
	moeIn, moeOut    []byte
	moeWant          []byte // what moeOut must hold after an exchange
	stats, statsWant []float64
	kvSend, kvRecv   []int
	kvIn, kvOut      []byte
	kvWant           []byte
	incIn            []byte
	incOut, incWant  []byte // rank 0 only

	stepWall []time.Duration // per measured step, up to the preallocated capacity
	failed   int
	err      error
	flip     corrupter // armed on rank 0 only
}

type llmLossy struct {
	p     params
	sess  *core.Session
	vcs   map[int]*fwd.VC
	ranks []*llmRank
	cmds  []chan llmCmd
	done  chan struct{}
	wg    sync.WaitGroup
	opSeq uint32
}

type llmCmd struct {
	n    int
	base uint32
	mode verifyMode
}

func newLLMLossy(p params) scenario { return &llmLossy{p: p} }

func (s *llmLossy) session() *core.Session { return s.sess }

// virt is the makespan: the latest rank's virtual clock.
func (s *llmLossy) virt() vclock.Time {
	var t vclock.Time
	for _, r := range s.ranks {
		t = vclock.Max(t, r.c.Now())
	}
	return t
}

// moeTable is the routing table: bytes rank src ships to expert dst per
// layer. Which pairs are routed (about a third) and the 1..4x size skew are
// fixed, so every seed moves the same traffic pattern; the seed adds up to
// 255 bytes to each routed block.
func moeTable(seed int64) [llmRanks][llmRanks]int {
	var t [llmRanks][llmRanks]int
	r := newRNG(seed, 400)
	for src := 0; src < llmRanks; src++ {
		for dst := 0; dst < llmRanks; dst++ {
			if src != dst && (src+dst)%3 == 0 {
				t[src][dst] = (4<<10)*(1+(src+2*dst)%4) + r.intn(256)
			}
		}
	}
	return t
}

func (s *llmLossy) setup(ph *phases) error {
	t0 := time.Now()
	w := clusterWorld(llmRanks, []int{0, 1, 2, 3, 4}, []int{4, 5, 6, 7})
	s.sess = core.NewSession(w)
	s.sess.SetObserver(s.p.obs)
	plan := &simnet.FaultPlan{Seed: s.p.cfg.seed, Corrupt: 0.005, Drop: 0.005}
	for _, a := range w.Adapters() {
		a.SetFaults(plan)
	}
	ph.world = time.Since(t0)

	t1 := time.Now()
	vcs, err := fwd.New(s.sess, fwd.Spec{
		Name:     "llm",
		Reliable: true,
		Segments: []core.ChannelSpec{
			{Driver: "sisci", Nodes: []int{0, 1, 2, 3, 4}},
			{Driver: "bip", Nodes: []int{4, 5, 6, 7}},
		},
	})
	if err != nil {
		return err
	}
	s.vcs = vcs
	table := moeTable(s.p.cfg.seed)
	seed := s.p.cfg.seed
	half := llmRanks / 2
	s.done = make(chan struct{})
	for rank := 0; rank < llmRanks; rank++ {
		c, err := coll.OverVC(vcs[rank], coll.Options{Alg: coll.Auto, Name: "llm"})
		if err != nil {
			return err
		}
		r := &llmRank{c: c, rank: rank}
		if rank == 0 {
			r.flip.at = s.p.cfg.flipOp
		}
		// root + 2 per layer + chunks + incasts spans per step
		r.sp = s.p.tr.buf(fmt.Sprintf("rank-%d", rank), s.p.tracedUnits*(1+2*llmLayers+llmKVChunks+llmIncasts)+64)
		r.moeSend, r.moeRecv = make([]int, llmRanks), make([]int, llmRanks)
		r.kvSend, r.kvRecv = make([]int, llmRanks), make([]int, llmRanks)
		stot, rtot := 0, 0
		for peer := 0; peer < llmRanks; peer++ {
			r.moeSend[peer], r.moeRecv[peer] = table[rank][peer], table[peer][rank]
			stot += r.moeSend[peer]
			rtot += r.moeRecv[peer]
		}
		r.moeIn, r.moeOut, r.moeWant = make([]byte, stot), make([]byte, rtot), make([]byte, rtot)
		// A block from src to dst carries the (src,dst) stream's prefix,
		// so the receiver can regenerate what it must see.
		off := 0
		for peer := 0; peer < llmRanks; peer++ {
			fillPattern(r.moeIn[off:off+r.moeSend[peer]], seed, uint64(1000+rank*llmRanks+peer))
			off += r.moeSend[peer]
		}
		off = 0
		for peer := 0; peer < llmRanks; peer++ {
			fillPattern(r.moeWant[off:off+r.moeRecv[peer]], seed, uint64(1000+peer*llmRanks+rank))
			off += r.moeRecv[peer]
		}
		r.stats, r.statsWant = make([]float64, llmStats), make([]float64, llmStats)
		r.kvIn, r.kvOut, r.kvWant = make([]byte, llmKVChunk), make([]byte, llmKVChunk), make([]byte, llmKVChunk)
		if rank < half {
			r.kvSend[rank+half] = llmKVChunk
			fillPattern(r.kvIn, seed, uint64(2000+rank))
		} else {
			r.kvRecv[rank-half] = llmKVChunk
			fillPattern(r.kvWant, seed, uint64(2000+rank-half))
		}
		r.incIn = make([]byte, llmIncastBlk)
		fillPattern(r.incIn, seed, uint64(3000+rank))
		if rank == 0 {
			r.incOut, r.incWant = make([]byte, llmRanks*llmIncastBlk), make([]byte, llmRanks*llmIncastBlk)
			for peer := 0; peer < llmRanks; peer++ {
				fillPattern(r.incWant[peer*llmIncastBlk:(peer+1)*llmIncastBlk], seed, uint64(3000+peer))
			}
		}
		r.stepWall = make([]time.Duration, 0, 4096)
		s.ranks = append(s.ranks, r)
		cmd := make(chan llmCmd)
		s.cmds = append(s.cmds, cmd)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for c := range cmd {
				r.run(c)
				s.done <- struct{}{}
			}
		}()
	}
	ph.channels = time.Since(t1)
	return nil
}

// run executes n steps on one rank. After the first error the rank stops
// (its communicator is poisoned) and reports it.
func (r *llmRank) run(c llmCmd) {
	for i := 0; i < c.n && r.err == nil; i++ {
		t0 := time.Now()
		root := r.sp.beginOp(kOp, c.base+uint32(i))
		ok, err := r.step(c.base+uint32(i), c.mode)
		r.sp.end(root)
		if c.mode == verifySparse && len(r.stepWall) < cap(r.stepWall) {
			r.stepWall = append(r.stepWall, time.Since(t0))
		}
		if err != nil {
			r.err = fmt.Errorf("rank %d step %d: %w", r.rank, i, err)
		} else if !ok {
			r.failed++
		}
	}
}

// step is the generator's loop body on one rank. Every payload carries the
// step number so a stale buffer is caught; it allocates nothing of its own.
func (r *llmRank) step(op uint32, mode verifyMode) (ok bool, err error) {
	ok = true
	// MoE layers.
	for layer := 0; layer < llmLayers; layer++ {
		tag := op*llmLayers + uint32(layer)
		stampBlocks(r.moeIn, r.moeSend, tag)
		h := r.sp.begin(kAlltoallv)
		err = r.c.Alltoallv(r.moeIn, r.moeSend, r.moeOut, r.moeRecv)
		r.sp.end(h)
		if err != nil {
			return false, fmt.Errorf("alltoallv: %w", err)
		}
		stampBlocks(r.moeWant, r.moeRecv, tag)
		ok = ok && sameBytes(r.moeOut, r.moeWant, mode)
		for i := range r.stats {
			r.stats[i] = float64(r.rank + layer + i)
			// every rank contributes rank+layer+i: the sum is known
			r.statsWant[i] = float64(llmRanks*(layer+i) + llmRanks*(llmRanks-1)/2)
		}
		h = r.sp.begin(kAllreduce)
		err = r.c.Allreduce(r.stats, r.stats, coll.Sum)
		r.sp.end(h)
		if err != nil {
			return false, fmt.Errorf("allreduce: %w", err)
		}
		for i := range r.stats {
			ok = ok && r.stats[i] == r.statsWant[i]
		}
	}
	// Prefill→decode KV-cache chunks, as sparse exchanges.
	for chunk := 0; chunk < llmKVChunks; chunk++ {
		tag := op*llmKVChunks + uint32(chunk)
		stamp(r.kvIn, tag)
		h := r.sp.begin(kAlltoallv)
		err = r.c.Alltoallv(r.kvIn, r.kvSend, r.kvOut, r.kvRecv)
		r.sp.end(h)
		if err != nil {
			return false, fmt.Errorf("kv alltoallv: %w", err)
		}
		if r.rank >= llmRanks/2 {
			stamp(r.kvWant, tag)
			ok = ok && sameBytes(r.kvOut, r.kvWant, mode)
		}
	}
	// Incast.
	for round := 0; round < llmIncasts; round++ {
		tag := op*llmIncasts + uint32(round)
		stamp(r.incIn, tag)
		h := r.sp.begin(kGather)
		err = r.c.Gather(0, r.incIn, r.incOut)
		r.sp.end(h)
		if err != nil {
			return false, fmt.Errorf("gather: %w", err)
		}
		if r.rank == 0 {
			r.flip.hit(r.incOut)
			for peer := 0; peer < llmRanks; peer++ {
				stamp(r.incWant[peer*llmIncastBlk:], tag)
			}
			ok = ok && sameBytes(r.incOut, r.incWant, mode)
		}
	}
	return ok, nil
}

// stampBlocks stamps the head of every non-empty block of a packed buffer.
func stampBlocks(buf []byte, counts []int, tag uint32) {
	off := 0
	for _, n := range counts {
		if n > 0 {
			stamp(buf[off:], tag)
		}
		off += n
	}
}

func (s *llmLossy) segment(n int, mode verifyMode) (ops, failed int, err error) {
	cmd := llmCmd{n: n, base: s.opSeq, mode: mode}
	s.opSeq += uint32(n)
	for _, c := range s.cmds {
		c <- cmd
	}
	for range s.cmds {
		<-s.done
	}
	// A step fails when any rank saw a wrong payload in it; ranks count
	// their own, so the worst rank bounds the number of bad steps.
	for _, r := range s.ranks {
		if r.err != nil && err == nil {
			err = r.err
		}
		if r.failed > failed {
			failed = r.failed
		}
		r.failed = 0
	}
	if err != nil {
		return n, failed + 1, err
	}
	return n, failed, nil
}

// stragglerRatio is the mean over measured steps of the slowest rank's wall
// time over the median rank's.
func (s *llmLossy) stragglerRatio() float64 {
	steps := len(s.ranks[0].stepWall)
	for _, r := range s.ranks {
		steps = min(steps, len(r.stepWall))
	}
	walls := make([]float64, llmRanks)
	total := 0.0
	for i := 0; i < steps; i++ {
		for k, r := range s.ranks {
			walls[k] = float64(r.stepWall[i])
		}
		total += ratio(slices.Max(walls), median(walls))
	}
	return ratio(total, float64(steps))
}

func (s *llmLossy) layer(m metricSet, p pass) {
	if !p.traced {
		return
	}
	c := func(name string) float64 { return counterOf(p.delta, name) }
	fwdMetrics(m, p, c("coll/msgs-out"))
	m.set("coll.ops", c("coll/ops"))
	m.set("coll.msgs_per_op", ratio(c("coll/msgs-out"), c("coll/ops")))
	m.set("coll.bytes_per_op", ratio(c("coll/bytes-out"), c("coll/ops")))
	m.set("coll.errors", c("coll/errors"))
	m.set("coll.straggler_ratio", s.stragglerRatio())
	m.set("simnet.fault.corrupted", c("fault/corrupted"))
	m.set("simnet.fault.dropped", c("fault/dropped"))
	m.set("simnet.fault.delayed", c("fault/delayed"))
	// Slowest rank's mean wall time per call.
	slowest := func(kind spanKind) float64 {
		worst := 0.0
		for _, r := range s.ranks {
			var total, count int64
			for _, sp := range r.sp.spans {
				if sp.kind == kind {
					total += sp.end - sp.start
					count++
				}
			}
			if mean := ratio(float64(total), float64(count)) / 1e3; mean > worst {
				worst = mean
			}
		}
		return worst
	}
	m.set("coll.alltoallv_wall_us", slowest(kAlltoallv))
	m.set("coll.allreduce_wall_us", slowest(kAllreduce))
	m.set("coll.gather_wall_us", slowest(kGather))
}

func (s *llmLossy) teardown() error {
	for _, c := range s.cmds {
		close(c)
	}
	s.wg.Wait()
	var first error
	for _, r := range s.ranks {
		if err := r.c.Err(); err != nil && first == nil {
			first = fmt.Errorf("rank %d communicator poisoned: %w", r.rank, err)
		}
	}
	for rank, v := range s.vcs {
		if err := v.Err(); err != nil && first == nil {
			first = fmt.Errorf("virtual channel on rank %d: %w", rank, err)
		}
	}
	for _, r := range s.ranks {
		r.c.Close() // closes the rank's virtual-channel handle too
	}
	s.sess.Shutdown()
	return first
}
