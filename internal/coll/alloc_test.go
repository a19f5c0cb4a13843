//go:build !race

package coll_test

import (
	"runtime"
	"sync"
	"testing"

	"madeleine2/internal/coll"
	"madeleine2/internal/core"
)

// nopExec runs no transfer: what a call allocates is Ops' own.
type nopExec struct{}

func (nopExec) Run(string, coll.Plan) error      { return nil }
func (nopExec) Reject(_ string, err error) error { return err }

// TestScatterRelayAllocs gates Scatter's relay staging: a rank that
// forwards part of root's blocks stages them in the rank's scratch buffer,
// so its second Scatter allocates no n*blk buffer.
func TestScatterRelayAllocs(t *testing.T) {
	const n, blk = 8, 64 << 10
	topo := coll.SingleCluster(n)
	relay := 1
	for relay < n && coll.ScatterSched(topo, relay, 0, blk, coll.Auto).NumSends() == 0 {
		relay++
	}
	if relay == n {
		t.Fatal("no relay rank in an 8-rank scatter tree")
	}
	ops := coll.NewOps(nopExec{}, topo, relay, coll.Auto)
	out := make([]byte, blk)
	if err := ops.Scatter(0, nil, out); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ops.Scatter(0, nil, out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= n*blk {
		t.Errorf("relay rank %d's second Scatter allocated %d bytes, want less than one %d-byte stage", relay, got, n*blk)
	}
}

// TestCollectiveCallAllocs gates what a call builds for itself, on every
// rank of the two-cluster topology: repeated with the same arguments, each
// collective reuses its memoized schedule and the kept reduction buffers
// and allocates nothing. Alltoallv alternating between an MoE and a KV
// count vector rebuilds into its memo's storage, which stops growing once
// both have been seen.
func TestCollectiveCallAllocs(t *testing.T) {
	const n, blk = 8, 256
	topo, err := coll.FromClusters(n, [][]int{{0, 1, 2, 3, 4}, {4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < n; rank++ {
		ops := coll.NewOps(nopExec{}, topo, rank, coll.Auto)
		in, out := make([]byte, blk), make([]byte, n*blk)
		a2aIn, a2aOut := make([]byte, n*blk), make([]byte, n*blk)
		vec := make([]float64, 8)
		moeS, moeR, kvS, kvR := llmCounts(rank, n, 64)
		vIn := make([]byte, max(sum(moeS), sum(kvS)))
		vOut := make([]byte, max(sum(moeR), sum(kvR)))
		calls := []struct {
			name string
			call func() error
		}{
			{"bcast", func() error { return ops.Bcast(1, in) }},
			{"gather", func() error { return ops.Gather(0, in, out) }},
			{"scatter", func() error { return ops.Scatter(0, out, in) }},
			{"allgather", func() error { return ops.Allgather(in, out) }},
			{"alltoall", func() error { return ops.Alltoall(a2aIn, a2aOut) }},
			{"alltoallv", func() error { return ops.Alltoallv(vIn, moeS, vOut, moeR) }},
			{"reduce", func() error { return ops.Reduce(0, vec, vec, coll.Sum) }},
			{"allreduce", func() error { return ops.Allreduce(vec, vec, coll.Sum) }},
			{"barrier", ops.Barrier},
			{"alltoallv, MoE then KV", func() error {
				if err := ops.Alltoallv(vIn, moeS, vOut, moeR); err != nil {
					return err
				}
				return ops.Alltoallv(vIn, kvS, vOut, kvR)
			}},
		}
		for _, c := range calls {
			if err := c.call(); err != nil {
				t.Fatalf("rank %d %s: %v", rank, c.name, err)
			}
			if got := testing.AllocsPerRun(10, func() { _ = c.call() }); got != 0 {
				t.Errorf("rank %d: a repeated %s allocates %.1f objects, want 0", rank, c.name, got)
			}
		}
	}
}

// TestVCCollectiveAllocs gates the whole collective message path over a
// virtual channel: on the clean two-cluster world, an LLM-serving step
// (llmStepAllocs) allocates at most vcAllocsPerMsg objects per collective
// message once warm. Every message is a Send scope and a Recv scope on the
// VC channel, which allocate no handle; each worker reuses one actor; a
// payload that no sink claims (every reduction arrival, every message of a
// call its receiver has not started) lands in one of the communicator's
// spare buffers, and every packet in one of the VC handle's kept frames.
// What is left is a fixed handful per measured window, not a cost per
// message (0.003 per message over 60 steps instead of 10). Measured 0.016,
// run after run (2-vCPU box, Go 1.24, GOMAXPROCS 1); the bound adds a 15 %
// margin, rounded up.
func TestVCCollectiveAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const vcAllocsPerMsg = 0.019
	vcs := twoClusterVCs(t, "alloc-vc", nil, false)
	cs := vcComms(t, vcs, coll.Options{Alg: coll.Auto})
	defer closeAll(cs)
	perMsg := llmStepAllocs(t, vcs[0].Session(), cs)
	if perMsg > vcAllocsPerMsg {
		t.Errorf("a collective message over the VC allocates %.3f objects, want at most %.3f", perMsg, vcAllocsPerMsg)
	}
}

// TestChannelCollectiveAllocs is TestVCCollectiveAllocs over an 8-rank tcp
// channel, which the communicator drives with the same scoped messages on
// worker threads. Measured 0.019, run after run (2-vCPU box, Go 1.24,
// GOMAXPROCS 1); the bound adds a 15 % margin, rounded up.
func TestChannelCollectiveAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const chanAllocsPerMsg = 0.022
	sess, cs := collWorld(t, 8, core.ChannelSpec{Name: "alloc-tcp", Driver: "tcp"}, coll.Options{Alg: coll.Auto})
	defer closeAll(cs)
	perMsg := llmStepAllocs(t, sess, cs)
	if perMsg > chanAllocsPerMsg {
		t.Errorf("a collective message over a tcp channel allocates %.3f objects, want at most %.3f", perMsg, chanAllocsPerMsg)
	}
}

// llmStepAllocs runs an LLM-serving step (4 × (MoE Alltoallv + 8-float
// Allreduce), then a Gather to rank 0) on every rank of the 8-rank set cs,
// warm times and then steps times, and reports the allocations per
// collective message (sess's coll/msgs-out) of the second run.
func llmStepAllocs(t *testing.T, sess *core.Session, cs []*coll.Comm) float64 {
	t.Helper()
	const (
		n           = 8
		warm, steps = 3, 10
	)
	msgsOut := func() int64 {
		for _, nv := range sess.Metrics().Snapshot().Counters {
			if nv.Name == "coll/msgs-out" {
				return nv.Value
			}
		}
		return 0
	}

	var warmed, measured sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, n)
	warmed.Add(n)
	measured.Add(n)
	for r, c := range cs {
		moeS, moeR, _, _ := llmCounts(r, n, 1<<10)
		vIn, vOut := make([]byte, sum(moeS)), make([]byte, sum(moeR))
		stats, inc, incOut := make([]float64, 8), make([]byte, 4<<10), make([]byte, n*4<<10)
		step := func() error {
			for layer := 0; layer < 4; layer++ {
				if err := c.Alltoallv(vIn, moeS, vOut, moeR); err != nil {
					return err
				}
				if err := c.Allreduce(stats, stats, coll.Sum); err != nil {
					return err
				}
			}
			return c.Gather(0, inc, incOut)
		}
		go func() {
			defer measured.Done()
			for i := 0; i < warm && errs[r] == nil; i++ {
				errs[r] = step()
			}
			warmed.Done()
			<-start
			for i := 0; i < steps && errs[r] == nil; i++ {
				errs[r] = step()
			}
		}()
	}
	warmed.Wait()
	m0 := msgsOut()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(start)
	measured.Wait()
	runtime.ReadMemStats(&after)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	msgs := msgsOut() - m0
	if msgs == 0 {
		t.Fatal("no collective message counted")
	}
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(msgs)
	t.Logf("%d messages, %.3f allocations each", msgs, perMsg)
	return perMsg
}
