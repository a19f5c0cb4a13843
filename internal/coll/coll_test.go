package coll_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"madeleine2/internal/bip"
	"madeleine2/internal/coll"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/model"
	"madeleine2/internal/rdma"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// collComms builds an n-rank communicator set over a fresh channel.
func collComms(t *testing.T, n int, spec core.ChannelSpec, opts coll.Options) []*coll.Comm {
	t.Helper()
	_, cs := collWorld(t, n, spec, opts)
	return cs
}

// collWorld is collComms with the session the channel belongs to.
func collWorld(t *testing.T, n int, spec core.ChannelSpec, opts coll.Options) (*core.Session, []*coll.Comm) {
	t.Helper()
	w := simnet.NewWorld(n)
	for i := 0; i < n; i++ {
		w.Node(i).AddAdapter(tcpnet.Network)
		w.Node(i).AddAdapter(rdma.Network)
		w.Node(i).AddAdapter(tcpnet.Network) // second tcp rail
	}
	sess := core.NewSession(w)
	chans, err := sess.NewChannel(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*coll.Comm, n)
	for i := 0; i < n; i++ {
		c, err := coll.OverChannel(chans[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return sess, out
}

// parallel runs body on every rank concurrently and waits.
func parallel(t *testing.T, cs []*coll.Comm, body func(c *coll.Comm) error) {
	t.Helper()
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
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func closeAll(cs []*coll.Comm) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *coll.Comm) { defer wg.Done(); c.Close() }(c)
	}
	wg.Wait()
}

// fill produces a deterministic per-rank byte pattern.
func fill(rank, size, salt int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(rank*131 + i*7 + salt)
	}
	return b
}

// exerciseAll drives every collective on the communicator set with
// randomized sizes and roots and checks each result byte-for-byte (or
// element-for-element) against a directly computed reference.
func exerciseAll(t *testing.T, cs []*coll.Comm, rng *rand.Rand, rounds int) {
	t.Helper()
	n := len(cs)
	for it := 0; it < rounds; it++ {
		root := rng.Intn(n)
		size := 1 + rng.Intn(9000)
		blk := 1 + rng.Intn(3000)
		salt := rng.Intn(256)

		// Bcast
		want := fill(root, size, salt)
		bufs := make([][]byte, n)
		for r := range bufs {
			if r == root {
				bufs[r] = append([]byte(nil), want...)
			} else {
				bufs[r] = make([]byte, size)
			}
		}
		parallel(t, cs, func(c *coll.Comm) error { return c.Bcast(root, bufs[c.Rank()]) })
		for r := range bufs {
			if !bytes.Equal(bufs[r], want) {
				t.Fatalf("it %d: bcast root %d size %d: rank %d differs", it, root, size, r)
			}
		}

		// Gather
		ins := make([][]byte, n)
		var concat []byte
		for r := 0; r < n; r++ {
			ins[r] = fill(r, blk, salt+1)
			concat = append(concat, ins[r]...)
		}
		gout := make([]byte, n*blk)
		parallel(t, cs, func(c *coll.Comm) error {
			if c.Rank() == root {
				return c.Gather(root, ins[c.Rank()], gout)
			}
			return c.Gather(root, ins[c.Rank()], nil)
		})
		if !bytes.Equal(gout, concat) {
			t.Fatalf("it %d: gather root %d blk %d differs", it, root, blk)
		}

		// Scatter
		souts := make([][]byte, n)
		for r := range souts {
			souts[r] = make([]byte, blk)
		}
		parallel(t, cs, func(c *coll.Comm) error {
			if c.Rank() == root {
				return c.Scatter(root, concat, souts[c.Rank()])
			}
			return c.Scatter(root, nil, souts[c.Rank()])
		})
		for r := range souts {
			if !bytes.Equal(souts[r], ins[r]) {
				t.Fatalf("it %d: scatter root %d blk %d: rank %d differs", it, root, blk, r)
			}
		}

		// Allgather
		agouts := make([][]byte, n)
		for r := range agouts {
			agouts[r] = make([]byte, n*blk)
		}
		parallel(t, cs, func(c *coll.Comm) error {
			return c.Allgather(ins[c.Rank()], agouts[c.Rank()])
		})
		for r := range agouts {
			if !bytes.Equal(agouts[r], concat) {
				t.Fatalf("it %d: allgather blk %d: rank %d differs", it, blk, r)
			}
		}

		// Alltoall
		a2ains := make([][]byte, n)
		a2aouts := make([][]byte, n)
		for r := 0; r < n; r++ {
			a2ains[r] = fill(r, n*blk, salt+2)
			a2aouts[r] = make([]byte, n*blk)
		}
		parallel(t, cs, func(c *coll.Comm) error {
			return c.Alltoall(a2ains[c.Rank()], a2aouts[c.Rank()])
		})
		for r := 0; r < n; r++ {
			for o := 0; o < n; o++ {
				if !bytes.Equal(a2aouts[r][o*blk:(o+1)*blk], a2ains[o][r*blk:(r+1)*blk]) {
					t.Fatalf("it %d: alltoall blk %d: rank %d block %d differs", it, blk, r, o)
				}
			}
		}

		// Alltoallv with coherent sparse counts (MoE-shaped: most pairs 0).
		sc := make([][]int, n)
		for r := range sc {
			sc[r] = make([]int, n)
			for d := 0; d < n; d++ {
				if (r+d)%3 == 0 && r != d {
					sc[r][d] = 16 * (1 + (r+2*d)%5)
				}
			}
		}
		vin := make([][]byte, n)
		vout := make([][]byte, n)
		rc := make([][]int, n)
		for r := 0; r < n; r++ {
			rc[r] = make([]int, n)
			tot := 0
			for o := 0; o < n; o++ {
				rc[r][o] = sc[o][r]
				tot += sc[o][r]
			}
			stot := 0
			for d := 0; d < n; d++ {
				stot += sc[r][d]
			}
			vin[r] = fill(r, stot, salt+3)
			vout[r] = make([]byte, tot)
		}
		parallel(t, cs, func(c *coll.Comm) error {
			return c.Alltoallv(vin[c.Rank()], sc[c.Rank()], vout[c.Rank()], rc[c.Rank()])
		})
		for r := 0; r < n; r++ {
			roff := 0
			for o := 0; o < n; o++ {
				soff := 0
				for d := 0; d < r; d++ {
					soff += sc[o][d]
				}
				if !bytes.Equal(vout[r][roff:roff+rc[r][o]], vin[o][soff:soff+sc[o][r]]) {
					t.Fatalf("it %d: alltoallv: rank %d from %d differs", it, r, o)
				}
				roff += rc[r][o]
			}
		}

		// Reduce + Allreduce over integer-valued floats (byte-exact sums).
		vecLen := 1 + rng.Intn(100)
		rins := make([][]float64, n)
		ref := make([]float64, vecLen)
		for r := 0; r < n; r++ {
			rins[r] = make([]float64, vecLen)
			for i := range rins[r] {
				rins[r][i] = float64((r+1)*(i+3)%97 - 40)
				ref[i] += rins[r][i]
			}
		}
		routs := make([][]float64, n)
		for r := range routs {
			routs[r] = make([]float64, vecLen)
		}
		parallel(t, cs, func(c *coll.Comm) error {
			if c.Rank() == root {
				return c.Reduce(root, rins[c.Rank()], routs[c.Rank()], coll.Sum)
			}
			return c.Reduce(root, rins[c.Rank()], nil, coll.Sum)
		})
		for i, v := range routs[root] {
			if v != ref[i] {
				t.Fatalf("it %d: reduce elem %d: got %v want %v", it, i, v, ref[i])
			}
		}
		arouts := make([][]float64, n)
		for r := range arouts {
			arouts[r] = make([]float64, vecLen)
		}
		parallel(t, cs, func(c *coll.Comm) error {
			return c.Allreduce(rins[c.Rank()], arouts[c.Rank()], coll.Sum)
		})
		for r := range arouts {
			for i, v := range arouts[r] {
				if v != ref[i] {
					t.Fatalf("it %d: allreduce rank %d elem %d: got %v want %v", it, r, i, v, ref[i])
				}
			}
		}

		// Barrier keeps the ranks' collective sequence aligned.
		parallel(t, cs, func(c *coll.Comm) error { return c.Barrier() })
	}
}

func TestCollectivesMatchReference(t *testing.T) {
	cases := []struct {
		name string
		n    int
		spec core.ChannelSpec
		opts coll.Options
	}{
		{"tcp-auto-5", 5, core.ChannelSpec{Name: "c1", Driver: "tcp"}, coll.Options{Alg: coll.Auto}},
		{"tcp-auto-8", 8, core.ChannelSpec{Name: "c2", Driver: "tcp"}, coll.Options{Alg: coll.Auto}},
		{"tcp-linear-4", 4, core.ChannelSpec{Name: "c3", Driver: "tcp"}, coll.Options{Alg: coll.Linear}},
		{"rdma-auto-4", 4, core.ChannelSpec{Name: "c4", Driver: "rdma"}, coll.Options{Alg: coll.Auto}},
		{"rails-auto-4", 4, core.ChannelSpec{
			Name:       "c5",
			Rails:      []core.RailSpec{{Driver: "tcp", Adapter: 0}, {Driver: "tcp", Adapter: 1}},
			StripeSize: 2048,
		}, coll.Options{Alg: coll.Auto}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := collComms(t, tc.n, tc.spec, tc.opts)
			defer closeAll(cs)
			exerciseAll(t, cs, rand.New(rand.NewSource(42)), 3)
		})
	}
}

// twoClusterVCs builds the 8-rank two-cluster forwarding world the
// topology-aware schedules target: sisci on {0..4}, bip on {4..7}, rank 4
// the gateway. A FaultPlan (nil = clean fabric) arms every adapter before
// any channel exists; reliable mode keeps the channel correct under it.
func twoClusterVCs(t *testing.T, name string, plan *simnet.FaultPlan, reliable bool) map[int]*fwd.VC {
	t.Helper()
	w := simnet.NewWorld(8)
	for _, r := range []int{0, 1, 2, 3, 4} {
		w.Node(r).AddAdapter(sisci.Network)
	}
	for _, r := range []int{4, 5, 6, 7} {
		w.Node(r).AddAdapter(bip.Network)
	}
	for r := 0; r < 8; r++ {
		w.Node(r).AddAdapter(tcpnet.Network)
	}
	sess := core.NewSession(w)
	if plan != nil {
		for _, a := range sess.World().Adapters() {
			a.SetFaults(plan)
		}
	}
	vcs, err := fwd.New(sess, fwd.Spec{
		Name:     name,
		Reliable: reliable,
		Segments: []core.ChannelSpec{
			{Driver: "sisci", Nodes: []int{0, 1, 2, 3, 4}},
			{Driver: "bip", Nodes: []int{4, 5, 6, 7}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return vcs
}

func vcComms(t *testing.T, vcs map[int]*fwd.VC, opts coll.Options) []*coll.Comm {
	t.Helper()
	out := make([]*coll.Comm, len(vcs))
	for node, vc := range vcs {
		c, err := coll.OverVC(vc, opts)
		if err != nil {
			t.Fatal(err)
		}
		out[node] = c
	}
	return out
}

func TestCollectivesOverVCTopology(t *testing.T) {
	vcs := twoClusterVCs(t, "coll-vc", nil, false)
	cs := vcComms(t, vcs, coll.Options{Alg: coll.Auto})
	defer closeAll(cs)
	if got := cs[0].Topology().NumClusters(); got != 2 {
		t.Fatalf("derived %d clusters from the VC, want 2", got)
	}
	exerciseAll(t, cs, rand.New(rand.NewSource(7)), 2)
}

// TestVCReceiveStamps: a rank's clock reaches the arrival of what it
// receives over a virtual channel. After a 64 KiB Bcast from rank 0 on the
// two-cluster world, no rank ends before its block could have crossed every
// hop from the root (each at least one Myrinet byte time, the fastest link
// here), and a leaf its relay forwards to alone ends after that relay.
func TestVCReceiveStamps(t *testing.T) {
	const size = 64 << 10
	vcs := twoClusterVCs(t, "coll-stamps", nil, false)
	cs := vcComms(t, vcs, coll.Options{Alg: coll.Auto})
	defer closeAll(cs)
	bufs := make([][]byte, len(cs))
	for r := range bufs {
		bufs[r] = make([]byte, size)
	}
	copy(bufs[0], fill(0, size, 1))
	parallel(t, cs, func(c *coll.Comm) error { return c.Bcast(0, bufs[c.Rank()]) })

	relay, children := make([]int, len(cs)), make([]int, len(cs))
	for r := 1; r < len(cs); r++ {
		sched := coll.BcastSched(cs[r].Topology(), r, 0, size, coll.Auto)
		relay[r] = sched.Rounds[0].Recvs[0].Peer
		children[relay[r]]++
	}
	hop := model.BIPLong.ByteTime(size)
	floor := func(r int) (f vclock.Time) {
		for ; r != 0; r = relay[r] {
			f += hop
		}
		return f
	}
	for r := 1; r < len(cs); r++ {
		end, p := cs[r].Now(), relay[r]
		if end < floor(r) {
			t.Errorf("rank %d ends at %v, before its block could cross the hops from the root (%v)", r, end, floor(r))
		}
		if children[r] == 0 && children[p] == 1 && end <= cs[p].Now() {
			t.Errorf("leaf %d ends at %v, not after its relay %d at %v", r, end, p, cs[p].Now())
		}
	}
}

// TestCollectivesLossyReliableFwd runs the full collective suite on a
// faulty fabric behind the reliable forwarding protocol: every payload
// must still arrive byte-identical, with no poisoned communicator.
func TestCollectivesLossyReliableFwd(t *testing.T) {
	plan := &simnet.FaultPlan{Seed: 11, Corrupt: 0.02, Drop: 0.02, Delay: 2, Jitter: 3}
	vcs := twoClusterVCs(t, "coll-lossy", plan, true)
	cs := vcComms(t, vcs, coll.Options{Alg: coll.Auto})
	defer closeAll(cs)
	exerciseAll(t, cs, rand.New(rand.NewSource(13)), 2)
	for r, c := range cs {
		if err := c.Err(); err != nil {
			t.Fatalf("rank %d poisoned: %v", r, err)
		}
	}
	// The world ends at rest: closing a communicator closes its VC handle,
	// which joins the rank's daemons and gateway pipelines.
	closeAll(cs)
	if err := vcs[0].Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestSpareBuffersRunAhead: every rank runs a sequence of collectives on
// its own, with rank 0 yielding before each call, so its peers run one
// collective ahead and their messages wait banked, queued or deferred in
// spare buffers while the transports' goroutines land the next ones. Each
// output is checked against what its senders put in: a spare handed out
// twice while its payload waits shows as a wrong output, and under the
// race detector as a write that races the payload's read. Over a virtual
// channel and over a plain one.
func TestSpareBuffersRunAhead(t *testing.T) {
	worlds := map[string]func() []*coll.Comm{
		"vc": func() []*coll.Comm {
			return vcComms(t, twoClusterVCs(t, "spare-vc", nil, false), coll.Options{Alg: coll.Auto})
		},
		"tcp": func() []*coll.Comm {
			return collComms(t, 4, core.ChannelSpec{Name: "spare-tcp", Driver: "tcp"}, coll.Options{Alg: coll.Auto})
		},
	}
	for name, build := range worlds {
		t.Run(name, func(t *testing.T) {
			cs := build()
			defer closeAll(cs)
			n := len(cs)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for r, c := range cs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[r] = runAhead(c, n, 20)
				}()
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
		})
	}
}

// runAhead is one rank's part of TestSpareBuffersRunAhead.
func runAhead(c *coll.Comm, n, iters int) error {
	const blk, size = 200, 1000
	r := c.Rank()
	a2aIn, a2aOut := make([]byte, n*blk), make([]byte, n*blk)
	vec, gOut := make([]float64, 16), make([]byte, n*blk)
	for it := 0; it < iters; it++ {
		yield := func() {
			for i := 0; r == 0 && i < 20; i++ {
				runtime.Gosched()
			}
		}
		yield()
		for p := 0; p < n; p++ {
			copy(a2aIn[p*blk:], fill(r*n+p, blk, it))
		}
		if err := c.Alltoall(a2aIn, a2aOut); err != nil {
			return err
		}
		for p := 0; p < n; p++ {
			if !bytes.Equal(a2aOut[p*blk:(p+1)*blk], fill(p*n+r, blk, it)) {
				return fmt.Errorf("it %d: alltoall block from %d differs", it, p)
			}
		}
		yield()
		for i := range vec {
			vec[i] = float64(r + it + i)
		}
		if err := c.Allreduce(vec, vec, coll.Sum); err != nil {
			return err
		}
		for i, v := range vec {
			if want := float64(n*(n-1)/2 + n*(it+i)); v != want {
				return fmt.Errorf("it %d: allreduce element %d is %v, want %v", it, i, v, want)
			}
		}
		yield()
		root := it % n
		buf := fill(root, size, it)
		if r != root {
			clear(buf)
		}
		if err := c.Bcast(root, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, fill(root, size, it)) {
			return fmt.Errorf("it %d: bcast from %d differs", it, root)
		}
		yield()
		if err := c.Gather(0, fill(r, blk, it+1), gOut); err != nil {
			return err
		}
		for p := 0; r == 0 && p < n; p++ {
			if !bytes.Equal(gOut[p*blk:(p+1)*blk], fill(p, blk, it+1)) {
				return fmt.Errorf("it %d: gathered block of %d differs", it, p)
			}
		}
	}
	return nil
}

// TestCloseJoinsWorkers: Close joins every goroutine its communicator's
// transport started, over a plain channel and over a virtual one, on a
// clean communicator set and on one whose every non-root rank a SizeError
// poisoned. Once every Close and Session.Shutdown have returned, every
// goroutine started since the world was built is gone or on its way out,
// read from one snapshot: a WaitGroup join returns once a worker has
// called Done, which it does just before it returns, so a joined worker
// may still be running, but none may wait on anything. A collective called
// after Close fails.
func TestCloseJoinsWorkers(t *testing.T) {
	const blk = 64
	worlds := []struct {
		name  string
		build func(opts coll.Options) (*core.Session, []*coll.Comm)
	}{
		{"tcp", func(opts coll.Options) (*core.Session, []*coll.Comm) {
			return collWorld(t, 5, core.ChannelSpec{Name: "joins-tcp", Driver: "tcp"}, opts)
		}},
		{"vc", func(opts coll.Options) (*core.Session, []*coll.Comm) {
			vcs := twoClusterVCs(t, "joins-vc", nil, false)
			return vcs[0].Session(), vcComms(t, vcs, opts)
		}},
	}
	for _, w := range worlds {
		for _, poison := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/poisoned=%v", w.name, poison), func(t *testing.T) {
				before := goroutineStates()
				// Linear: the root sends to every rank itself, so a
				// poisoned rank leaves no rank waiting on it.
				sess, cs := w.build(coll.Options{Alg: coll.Linear})
				n := len(cs)
				errs := make([]error, n)
				var wg sync.WaitGroup
				for r, c := range cs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						buf := fill(0, blk, 0)
						if poison && r == 0 {
							buf = buf[:blk/4] // the root's block is short
						}
						errs[r] = c.Bcast(0, buf)
					}()
				}
				wg.Wait()
				for r, err := range errs {
					var se *coll.SizeError
					if poison && r != 0 && !errors.As(err, &se) {
						t.Errorf("rank %d's error = %v, want a SizeError", r, err)
					} else if (!poison || r == 0) && err != nil {
						t.Errorf("rank %d: %v", r, err)
					}
				}
				closeAll(cs)
				if err := cs[0].Bcast(0, make([]byte, blk)); err == nil {
					t.Error("a Bcast on a closed communicator succeeded")
				}
				sess.Shutdown()
				for id, state := range goroutineStates() {
					if _, old := before[id]; !old && !strings.HasPrefix(state, "running") && !strings.HasPrefix(state, "runnable") {
						t.Errorf("goroutine %s started with the world is %s after Close", id, state)
					}
				}
			})
		}
	}
}

// goroutineStates reads every goroutine's id and state from one snapshot
// of their stacks.
func goroutineStates() map[string]string {
	buf := make([]byte, 1<<20)
	states := map[string]string{}
	for _, line := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n") {
		if rest, ok := strings.CutPrefix(line, "goroutine "); ok {
			id, state, _ := strings.Cut(rest, " [")
			states[id], _, _ = strings.Cut(state, "]")
		}
	}
	return states
}

// TestSizeMismatchPoisons makes one rank contribute short all-to-all
// blocks: its receivers must surface a typed SizeError instead of
// corrupting their outputs, the communicator poisons, and the set still
// tears down cleanly (no wedged drain).
func TestSizeMismatchPoisons(t *testing.T) {
	cs := collComms(t, 3, core.ChannelSpec{Name: "mismatch", Driver: "tcp"}, coll.Options{})
	defer closeAll(cs)
	n := len(cs)
	// Coherent counts everywhere except rank 2's sends: it ships 16-byte
	// blocks where every receiver's schedule expects 64.
	outs := make([]error, n)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *coll.Comm) {
			defer wg.Done()
			sendBlk := 64
			if i == 2 {
				sendBlk = 16 // liar: short blocks
			}
			sc := make([]int, n)
			rc := make([]int, n)
			for p := 0; p < n; p++ {
				if p == i {
					continue
				}
				sc[p] = sendBlk
				rc[p] = 64
			}
			if i == 2 {
				rc[0], rc[1] = 64, 64
			}
			stot := 0
			for _, v := range sc {
				stot += v
			}
			rtot := 0
			for _, v := range rc {
				rtot += v
			}
			outs[i] = c.Alltoallv(fill(i, stot, 0), sc, make([]byte, rtot), rc)
		}(i, c)
	}
	wg.Wait()
	for _, r := range []int{0, 1} {
		var se *coll.SizeError
		if !errors.As(outs[r], &se) {
			t.Fatalf("rank %d error = %v, want SizeError", r, outs[r])
		}
		if se.Source != 2 || se.Got != 16 || se.Want != 64 {
			t.Fatalf("rank %d SizeError = %+v, want source 2 got 16 want 64", r, se)
		}
	}
	if err := cs[0].Bcast(0, make([]byte, 8)); err == nil {
		t.Fatal("poisoned communicator accepted another collective")
	}
}

// TestShortReductionOutputRejected hands Reduce (at root) and Allreduce an
// out one element short of in: an argument error, as for every other
// collective's short buffer, not a silently truncated vector.
func TestShortReductionOutputRejected(t *testing.T) {
	in := []float64{1, 2, 3}
	rows := []struct {
		name string
		call func(c *coll.Comm, out []float64) error
	}{
		{"reduce", func(c *coll.Comm, out []float64) error { return c.Reduce(0, in, out, coll.Sum) }},
		{"allreduce", func(c *coll.Comm, out []float64) error { return c.Allreduce(in, out, coll.Sum) }},
	}
	for _, row := range rows {
		cs := collComms(t, 2, core.ChannelSpec{Name: "short-" + row.name, Driver: "tcp"}, coll.Options{})
		errs := make([]error, len(cs))
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(i int, c *coll.Comm) {
				defer wg.Done()
				errs[i] = row.call(c, make([]float64, len(in)-1))
			}(i, c)
		}
		wg.Wait()
		if errs[0] == nil {
			t.Errorf("%s of %d elements into an out of %d succeeded at rank 0", row.name, len(in), len(in)-1)
		}
		closeAll(cs)
	}
}

// TestMetricsPublished checks the coll/* counters move on the session
// registry the channel belongs to.
func TestMetricsPublished(t *testing.T) {
	w := simnet.NewWorld(2)
	for i := 0; i < 2; i++ {
		w.Node(i).AddAdapter(tcpnet.Network)
	}
	sess := core.NewSession(w)
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "met", Driver: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]*coll.Comm, 2)
	for i := 0; i < 2; i++ {
		if cs[i], err = coll.OverChannel(chans[i], coll.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	defer closeAll(cs)
	parallel(t, cs, func(c *coll.Comm) error {
		return c.Bcast(0, fill(0, 100, int(0)))
	})
	snap := sess.Metrics().Snapshot()
	vals := map[string]int64{}
	for _, nv := range snap.Counters {
		vals[nv.Name] = nv.Value
	}
	for _, name := range []string{"coll/ops", "coll/msgs-out", "coll/msgs-in", "coll/bytes-out", "coll/bytes-in"} {
		if vals[name] == 0 {
			t.Fatalf("counter %s did not move (snapshot %v)", name, vals)
		}
	}
}
