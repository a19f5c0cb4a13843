package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"madeleine2/internal/coll"
	"madeleine2/internal/core"
	"madeleine2/internal/metrics"
	"madeleine2/internal/simnet"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
)

// Layer probes: each calls one layer's exported functions in a tight loop
// with a fixed iteration count (scaled by -scale) and reports wall
// nanoseconds and heap allocations per call. They are independent of the
// workload and run at the end of every traced invocation. A probe repeats
// its loop probeReps times and reports the median repetition.

const probeReps = 5

// probeLoop times fn over iters iterations, probeReps times.
func probeLoop(iters int, fn func() error) (nsPerOp, allocsPerOp float64, err error) {
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for rep := 0; rep < probeReps; rep++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(iters))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	return median(ns), median(allocs), nil
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 1
}

// runProbes fills in every probe metric.
func runProbes(m metricSet, cfg config) error {
	for _, p := range []func(metricSet, config) error{
		probeCoreNull, probeRawDrivers, probeSimnetVclock, probeColl, probeMPI, probeNexus, probeMetricsTrace,
	} {
		if err := p(m, cfg); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

// table1 is a preallocated Table 1 message (8-byte express header carrying
// the body length, 1 KiB cheaper body) and its receive buffers.
type table1 struct{ hdr, body, rhdr, rbody []byte }

func newTable1(seed int64) table1 {
	t := table1{make([]byte, hdrLen), make([]byte, 1<<10), make([]byte, hdrLen), make([]byte, 1<<10)}
	fillPattern(t.body, seed, 600)
	binary.LittleEndian.PutUint32(t.hdr[4:], uint32(len(t.body)))
	return t
}

// nullPair builds a two-node world joined by one null-driver channel.
func nullPair(policy string, obs *core.Observer) (*core.Session, map[int]*core.Channel, error) {
	sess := core.NewSession(simnet.NewWorld(2))
	sess.SetObserver(obs)
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "probe-" + policy, Driver: nullDriverName(policy)})
	return sess, chans, err
}

// nullMsgLoop sends and receives whole messages from one goroutine: no
// hand-off, no driver cost, only core.
func nullMsgLoop(chans map[int]*core.Channel, t table1, iters int) (float64, float64, error) {
	s, r := vclock.NewActor("probe-s"), vclock.NewActor("probe-r")
	return probeLoop(iters, func() error {
		if err := sendTable1(nil, chans[0], s, 1, t.hdr, t.body); err != nil {
			return err
		}
		_, err := recvTable1(nil, chans[1], r, t.rhdr, t.rbody)
		return err
	})
}

func probeCoreNull(m metricSet, cfg config) error {
	remove, err := installNullDrivers()
	if err != nil {
		return err
	}
	defer remove()
	t := newTable1(cfg.seed)
	iters := scaled(20000, cfg.scale)

	var eagerNS float64
	for _, policy := range nullPolicies {
		sess, chans, err := nullPair(policy, nil)
		if err != nil {
			return err
		}
		ns, allocs, err := nullMsgLoop(chans, t, iters)
		sess.Shutdown()
		if err != nil {
			return fmt.Errorf("null %s: %w", policy, err)
		}
		m.set("core.null."+policy+".msg_ns", ns)
		m.set("core.null."+policy+".msg_allocs", allocs)
		if policy == "eager" {
			eagerNS = ns
		}
	}

	// The same loop with an Observer and a bounded span recorder on.
	obsIters := scaled(4000, cfg.scale)
	sess, chans, err := nullPair("eager", core.NewObserver(trace.New(1<<18)))
	if err != nil {
		return err
	}
	on, _, err := nullMsgLoop(chans, t, obsIters)
	sess.Shutdown()
	if err != nil {
		return fmt.Errorf("observer: %w", err)
	}
	m.set("core.observer.on_msg_ns", on)
	m.set("core.observer.overhead_share", ratio(on, eagerNS)-1)

	if err := probeLease(m, t, iters); err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	if err := probeAsyncNull(m, cfg); err != nil {
		return fmt.Errorf("async: %w", err)
	}
	return nil
}

// probeLease has two senders fight for one connection's send lease while
// the caller receives: the cost of a message when every lease acquisition
// is contended and handed over FIFO.
func probeLease(m metricSet, t table1, iters int) error {
	sess, chans, err := nullPair("eager", nil)
	if err != nil {
		return err
	}
	defer sess.Shutdown()
	r := vclock.NewActor("probe-r")
	var ns []float64
	for rep := 0; rep < probeReps; rep++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		t0 := time.Now()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := vclock.NewActor(fmt.Sprintf("probe-s%d", g))
				for i := 0; i < iters && errs[g] == nil; i++ {
					errs[g] = sendTable1(nil, chans[0], a, 1, t.hdr, t.body)
				}
			}()
		}
		var recvErr error
		for i := 0; i < 2*iters && recvErr == nil; i++ {
			_, recvErr = recvTable1(nil, chans[1], r, t.rhdr, t.rbody)
		}
		if recvErr != nil {
			// The senders may be parked on a full wire; the process is about
			// to exit non-zero, which is what ends them.
			return recvErr
		}
		wg.Wait()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(2*iters))
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	m.set("core.lease.contended_msg_ns", median(ns))
	return nil
}

// probeAsyncNull runs batches of async conversations (64-byte single-block
// send plus its mirror receive) over the null driver: the progress engine,
// run queue and completion queues with no driver underneath.
func probeAsyncNull(m metricSet, cfg config) error {
	const batch = 512 // below the wire depth: a send never blocks a worker
	sess := core.NewSessionWith(simnet.NewWorld(2), core.SessionSpec{Workers: core.DefaultWorkers})
	defer sess.Shutdown()
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "probe-async", Driver: nullDriverName("eager")})
	if err != nil {
		return err
	}
	payload := make([]byte, asyncBytes)
	fillPattern(payload, cfg.seed, 601)
	dsts := make([][]byte, batch)
	for i := range dsts {
		dsts[i] = make([]byte, asyncBytes)
	}
	scq, rcq := core.NewCQ(), core.NewCQ()
	defer scq.Close()
	defer rcq.Close()
	drain := func(cq *core.CQ) error {
		for done := 0; done < batch; {
			c, ok := cq.Wait()
			if !ok {
				return fmt.Errorf("completion queue closed early")
			}
			if c.Err != nil {
				return c.Err
			}
			if c.Kind == core.OpEnd {
				done++
			}
		}
		return nil
	}
	ns, allocs, err := probeLoop(scaled(16, cfg.scale), func() error {
		for k := 0; k < batch; k++ {
			send, err := chans[0].SubmitPacking(1, scq)
			if err != nil {
				return err
			}
			_ = send.SubmitPack(payload, core.SendCheaper, core.ReceiveCheaper)
			_ = send.SubmitEnd()
			recv := chans[1].SubmitUnpacking(rcq)
			_ = recv.SubmitUnpack(dsts[k], core.SendCheaper, core.ReceiveCheaper)
			_ = recv.SubmitEnd()
		}
		if err := drain(scq); err != nil {
			return err
		}
		return drain(rcq)
	})
	if err != nil {
		return err
	}
	m.set("core.async.null_conv_ns", ns/batch)
	m.set("core.async.null_conv_allocs", allocs/batch)
	return nil
}

func probeSimnetVclock(m metricSet, cfg config) error {
	iters := scaled(200000, cfg.scale)
	q := simnet.NewQueue[int]()
	ns, allocs, err := probeLoop(iters, func() error {
		q.Push(1)
		if _, ok := q.Pop(); !ok {
			return fmt.Errorf("queue closed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("simnet.queue_push_pop_ns", ns)
	m.set("simnet.queue_allocs", allocs)

	a := vclock.NewActor("probe")
	ns, _, _ = probeLoop(iters, func() error { a.Advance(1); return nil })
	m.set("vclock.advance_ns", ns)
	res := vclock.NewResource("probe")
	ns, _, _ = probeLoop(iters, func() error { res.Acquire(a.Now(), 1); return nil })
	m.set("vclock.resource_acquire_ns", ns)
	return nil
}

// eightRanks opens an 8-node tcp world with one channel.
func eightRanks(name string, spec core.SessionSpec) (*core.Session, map[int]*core.Channel, error) {
	w := simnet.NewWorld(8)
	for i := 0; i < 8; i++ {
		w.Node(i).AddAdapter(tcpnet.Network)
	}
	sess := core.NewSessionWith(w, spec)
	chans, err := sess.NewChannel(core.ChannelSpec{Name: name, Driver: "tcp"})
	return sess, chans, err
}

// onRanks runs body on every rank concurrently, iters times each, and
// returns the wall time per iteration.
func onRanks(ranks, iters int, body func(rank int) error) (time.Duration, error) {
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && errs[r] == nil; i++ {
				errs[r] = body(r)
			}
		}()
	}
	wg.Wait()
	d := time.Since(t0) / time.Duration(iters)
	for r, err := range errs {
		if err != nil {
			return d, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return d, nil
}

// probeColl times an Allgather of 4 KiB blocks over the plain-channel
// transport (the workloads only run coll over virtual channels).
func probeColl(m metricSet, cfg config) error {
	const blk = 4 << 10
	sess, chans, err := eightRanks("probe-coll", core.SessionSpec{})
	if err != nil {
		return err
	}
	defer sess.Shutdown()
	comms := make([]*coll.Comm, 8)
	ins, outs := make([][]byte, 8), make([][]byte, 8)
	for r := range comms {
		if comms[r], err = coll.OverChannel(chans[r], coll.Options{Alg: coll.Auto, Name: "probe"}); err != nil {
			return err
		}
		ins[r], outs[r] = make([]byte, blk), make([]byte, 8*blk)
		fillPattern(ins[r], cfg.seed, uint64(700+r))
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	d, err := onRanks(8, scaled(200, cfg.scale), func(r int) error { return comms[r].Allgather(ins[r], outs[r]) })
	if err != nil {
		return fmt.Errorf("coll allgather: %w", err)
	}
	for r := range comms {
		for src := range comms {
			if !sameBytes(outs[r][src*blk:(src+1)*blk], ins[src], verifyFull) {
				return fmt.Errorf("coll allgather: rank %d holds a wrong block from %d", r, src)
			}
		}
	}
	m.set("coll.chan.allgather_8r_wall_us", float64(d.Nanoseconds())/1e3)
	return nil
}

func probeMetricsTrace(m metricSet, cfg config) error {
	iters := scaled(200000, cfg.scale)
	reg := metrics.NewRegistry()
	ctr := reg.Counter("bench/probe/counter")
	ns, _, _ := probeLoop(iters, func() error { ctr.Add(1); return nil })
	m.set("metrics.counter_add_ns", ns)
	for i := 0; i < 64; i++ { // a registry the size of a busy session's
		reg.Counter(fmt.Sprintf("bench/probe/c%d", i)).Add(1)
		reg.Gauge(fmt.Sprintf("bench/probe/g%d", i)).Set(1)
	}
	ns, _, _ = probeLoop(scaled(2000, cfg.scale), func() error { _ = reg.Snapshot(); return nil })
	m.set("metrics.snapshot_us", ns/1e3)

	rec := trace.New(1 << 16) // bounded: past the limit Record only counts
	ns, _, _ = probeLoop(iters, func() error { rec.Record("probe", 0, 1, "p:probe"); return nil })
	m.set("trace.record_ns", ns)
	hist := trace.NewHistogram()
	ns, _, _ = probeLoop(iters, func() error { hist.Observe(1234); return nil })
	m.set("trace.hist_observe_ns", ns)
	return nil
}
