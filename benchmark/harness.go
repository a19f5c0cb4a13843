package main

import (
	"fmt"
	"runtime"
	runmetrics "runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"madeleine2/internal/core"
	"madeleine2/internal/metrics"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // how long the measured phase runs
	scale   float64 // scales every segment's operation count (smoke test: 0.01)
	outDir  string  // where the traced run writes its Chrome trace
	flipOp  int64   // test hook: corrupt the flipOp-th received payload (0 = never)
}

// Measurement shape (see README): set-up is repeated setupReps times;
// measured segments repeat a fixed operation count on one persistent world
// until cfg.seconds have passed, and never fewer than minSegments. Host
// time (per set-up, per operation) is read off the quietFraction quantile of
// the repetitions: a busy neighbour on the shared host only ever adds time,
// for seconds to minutes at a stretch, so the fast end of a run's equal
// repetitions is the program's own cost and the middle is the neighbour's.
const (
	setupReps      = 9
	minSegments    = 11
	tracedSegments = 3
	quietFraction  = 0.05
)

// gcBallastBytes is the size of a pointer-free block kept live for the
// whole process. With GOGC at its default the collector then starts a
// cycle every gcBallastBytes + live heap bytes allocated, instead of every
// live heap bytes: where in a burst of in-flight messages the last cycle
// happened to land (async_10k: 6 or 19 MiB) no longer sets how often the
// next ones run. Without it whole runs of async_10k settled 30 % apart.
const gcBallastBytes = 32 << 20

var gcBallast []byte

// holdBallast allocates the ballast, never touched (so never resident) and
// reachable from gcBallast for the rest of the process.
func holdBallast() { gcBallast = make([]byte, gcBallastBytes) }

// liveHeap is the heap in use without the ballast.
func liveHeap(ms *runtime.MemStats) uint64 {
	if n := uint64(len(gcBallast)); ms.HeapAlloc > n {
		return ms.HeapAlloc - n
	}
	return ms.HeapAlloc
}

// params is what a scenario is built from.
type params struct {
	cfg         config
	obs         *core.Observer // installed on the session before channels exist; nil = unobserved
	tr          *tracer        // nil = untraced
	tracedUnits int            // units the traced segments will run in total (sizes span buffers)
	laneStats   bool           // ping-pong only: per-driver wall/alloc/virtual readings
}

// phases splits set-up time for the setup.* metrics.
type phases struct {
	world, channels time.Duration
}

// scenario is one workload on one persistent world. A unit is the
// workload's natural batch (a round trip per lane, a message per
// direction, a step, a round); a segment runs a fixed number of units.
type scenario interface {
	setup(ph *phases) error
	// segment runs n units and reports operations attempted and failed
	// (payload mismatches). An error means the world is wedged: the run
	// stops.
	segment(n int, mode verifyMode) (ops, failed int, err error)
	// virt reads the workload's virtual clock (initiator, receiver or
	// makespan): its delta over a segment is the simulated hardware time.
	virt() vclock.Time
	session() *core.Session
	// layer reports the workload's own per-layer numbers after a pass.
	layer(m metricSet, p pass)
	// teardown closes the world, joins every goroutine set-up started and
	// checks that no communicator or virtual channel was poisoned.
	teardown() error
}

// pass is what a scenario's layer method reads its numbers from.
type pass struct {
	traced  bool             // pass B (Observer and spans on) or pass A
	ops     int              // operations the pass's segments ran
	mallocs uint64           // heap objects allocated over those segments
	sum     spanSummary      // the benchmark's wall-clock spans (pass B)
	delta   metrics.Snapshot // session registry change over the segments
	obs     []trace.Span     // the Observer's virtual-time spans, whole life of the world (pass B)
}

// workload is one entry of BENCHMARK.json's list.
type workload struct {
	name string
	why  string
	// segUnits is the units per measured segment at scale 1, sized so a
	// segment takes 0.15 to 0.25 s on the reference box (several collector
	// cycles each): an 18 s run has 50 to 100 of them.
	segUnits int
	// traceDiv shrinks traced segments so their spans fit the preallocated
	// buffers (about 150k spans per segment).
	traceDiv int
	build    func(p params) scenario
}

func (w workload) units(scale float64, traced bool) int {
	n := float64(w.segUnits) * scale
	if traced {
		n /= float64(w.traceDiv)
	}
	if n < 1 {
		return 1
	}
	return int(n)
}

// cpuTime reads the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// segStat is one segment's reading.
type segStat struct {
	wall, cpu time.Duration
	virt      vclock.Time
	ops       int
	failed    int
	// Readings taken after the segment and a forced collection:
	// cumulative heap objects and bytes allocated, and the live heap.
	mallocs, bytes, live uint64
}

func runSegment(sc scenario, n int, mode verifyMode) (segStat, error) {
	v0, c0, t0 := sc.virt(), cpuTime(), time.Now()
	ops, failed, err := sc.segment(n, mode)
	st := segStat{wall: time.Since(t0), cpu: cpuTime() - c0, virt: sc.virt() - v0, ops: ops, failed: failed}
	if err != nil {
		return st, err
	}
	if ops <= 0 {
		return st, fmt.Errorf("segment ran no operations")
	}
	return st, nil
}

// tally accumulates attempted/failed operations over a whole invocation.
type tally struct{ attempted, failed int64 }

func (t *tally) add(st segStat) {
	t.attempted += int64(st.ops)
	t.failed += int64(st.failed)
}

// opened is a scenario with its set-up readings.
type opened struct {
	sc     scenario
	ph     phases
	warmup time.Duration
	total  time.Duration
	mem0   runtime.MemStats // before set-up
	mem1   runtime.MemStats // after warm-up
}

// open builds a scenario, sets it up and runs the discarded warm-up
// segment (full verification): the span setup_s covers.
func open(w workload, p params, t *tally, wd *watchdog) (*opened, error) {
	o := &opened{}
	runtime.ReadMemStats(&o.mem0)
	t0 := time.Now()
	o.sc = w.build(p)
	if err := o.sc.setup(&o.ph); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	wd.watch(o.sc.session())
	tw := time.Now()
	st, err := runSegment(o.sc, w.units(p.cfg.scale, p.tr != nil), verifyFull)
	t.add(st)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	o.warmup = time.Since(tw)
	o.total = time.Since(t0)
	runtime.ReadMemStats(&o.mem1)
	return o, nil
}

// segmentsFor runs segments of n units until d has passed, at least min.
// Between segments, outside every timed window, it forces a collection and
// samples the live heap, so every segment starts from a collected heap and
// runs the same number of collector cycles.
func segmentsFor(sc scenario, n int, d time.Duration, min int, t *tally) ([]segStat, error) {
	var out []segStat
	var ms runtime.MemStats
	deadline := time.Now().Add(d)
	for len(out) < min || time.Now().Before(deadline) {
		st, err := runSegment(sc, n, verifySparse)
		t.add(st)
		if err != nil {
			return out, err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		st.mallocs, st.bytes, st.live = ms.Mallocs, ms.TotalAlloc, liveHeap(&ms)
		out = append(out, st)
	}
	return out, nil
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// runEndToEnd is the untraced run: every end-to-end metric, Observer nil,
// no spans, no per-lane readings.
func runEndToEnd(w workload, cfg config, wd *watchdog) (metricSet, tally, error) {
	var t tally
	m := metricSet{}
	p := params{cfg: cfg}
	// Set-up is timed setupReps times: twice before the measured phase (the
	// second world is the measured one) and the rest after it, so that a
	// few seconds of interference from a neighbour cannot cover them all.
	var setups []float64
	setUp := func() (*opened, error) {
		o, err := open(w, p, &t, wd)
		if err == nil {
			setups = append(setups, o.total.Seconds())
		}
		return o, err
	}
	tearDown := func(o *opened) error {
		if err := o.sc.teardown(); err != nil {
			return fmt.Errorf("%s: teardown: %w", w.name, err)
		}
		return nil
	}
	o, err := setUp()
	if err == nil {
		err = tearDown(o)
	}
	if err == nil {
		o, err = setUp()
	}
	if err != nil {
		return nil, t, err
	}

	n := w.units(cfg.scale, false)
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	segs, err := segmentsFor(o.sc, n, time.Duration(cfg.seconds*float64(time.Second)), minSegments, &t)
	if err != nil {
		return nil, t, fmt.Errorf("%s: %w", w.name, err)
	}
	last := segs[len(segs)-1]

	// One more segment, outside the measurement, compares every byte.
	st, err := runSegment(o.sc, n, verifyFull)
	t.add(st)
	if err != nil {
		return nil, t, fmt.Errorf("%s: verification segment: %w", w.name, err)
	}
	err = tearDown(o)
	for err == nil && len(setups) < setupReps {
		if o, err = setUp(); err == nil {
			err = tearDown(o)
		}
	}
	if err != nil {
		return nil, t, err
	}

	var wall, cpu, virt, live []float64
	ops := 0
	for _, s := range segs {
		wall = append(wall, s.wall.Seconds()/float64(s.ops))
		cpu = append(cpu, float64(s.cpu.Nanoseconds())/1e3/float64(s.ops))
		virt = append(virt, s.virt.Microseconds()/float64(s.ops))
		live = append(live, mib(s.live))
		ops += s.ops
	}
	m.set("setup_s", quantile(setups, quietFraction))
	m.set("ops_per_s", 1/quantile(wall, quietFraction))
	m.set("cpu_us_per_op", quantile(cpu, quietFraction))
	m.set("allocs_per_op", float64(last.mallocs-m0.Mallocs)/float64(ops))
	m.set("alloc_bytes_per_op", float64(last.bytes-m0.TotalAlloc)/float64(ops))
	m.set("virt_us_per_op", median(virt))
	// The largest reading of the first minSegments segments, the ones every
	// run has: the live heap then belongs to a fixed operation count
	// whatever the machine's speed (pingpong_small's grows with every
	// message), and it is the steady end of a noisy sample (async_10k's
	// queues keep between 6 and 19 MiB of slack depending on where a
	// collection catches them; the peak moves 10 % run to run, the median
	// 50 %).
	m.set("live_heap_mb", slices.Max(live[:minSegments]))
	return m, t, nil
}

// gcCPUSeconds reads the runtime's estimate of CPU spent in the collector.
func gcCPUSeconds() float64 {
	s := []runmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runmetrics.Read(s)
	if s[0].Value.Kind() != runmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runTraced is the per-layer run. Pass A measures a few untraced segments
// on an unobserved world (the base of trace.overhead_share, the per-driver
// lanes, host.* and setup.*); pass B repeats the workload on a world with a
// core.Observer and the benchmark's span recorder on; then the isolated
// layer probes run. End-to-end metrics never come from here.
func runTraced(w workload, cfg config, wd *watchdog) (metricSet, tally, error) {
	var t tally
	m := metricSet{}
	budget := time.Duration(cfg.seconds * float64(time.Second) / 3)

	// Pass A: untraced.
	goroutines0 := settledGoroutines()
	a, err := open(w, params{cfg: cfg, laneStats: true}, &t, wd)
	if err != nil {
		return nil, t, err
	}
	peak := runtime.NumGoroutine()
	var h0, h1 runtime.MemStats
	runtime.ReadMemStats(&h0)
	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	segsA, err := segmentsFor(a.sc, w.units(cfg.scale, false), budget, tracedSegments, &t)
	if err != nil {
		return nil, t, fmt.Errorf("%s: %w", w.name, err)
	}
	gc1, cpu1 := gcCPUSeconds(), cpuTime()
	runtime.ReadMemStats(&h1)
	if g := runtime.NumGoroutine(); g > peak {
		peak = g
	}
	opsA := 0
	var wallA []float64
	for _, s := range segsA {
		opsA += s.ops
		wallA = append(wallA, s.wall.Seconds())
	}
	a.sc.layer(m, pass{ops: opsA, mallocs: h1.Mallocs - h0.Mallocs})
	td := time.Now()
	if err := a.sc.teardown(); err != nil {
		return nil, t, fmt.Errorf("%s: teardown: %w", w.name, err)
	}
	m.set("setup.teardown_s", time.Since(td).Seconds())
	m.set("setup.world_s", a.ph.world.Seconds())
	m.set("setup.channels_s", a.ph.channels.Seconds())
	m.set("setup.warmup_s", a.warmup.Seconds())
	m.set("setup.allocs", float64(a.mem1.Mallocs-a.mem0.Mallocs))
	m.set("setup.alloc_bytes", float64(a.mem1.TotalAlloc-a.mem0.TotalAlloc))
	m.set("host.gc_cycles", float64(h1.NumGC-h0.NumGC))
	m.set("host.gc_pause_us", float64(h1.PauseTotalNs-h0.PauseTotalNs)/1e3)
	m.set("host.gc_cpu_share", ratio(gc1-gc0, (cpu1-cpu0).Seconds()))
	m.set("host.goroutines_peak", float64(peak))
	m.set("host.goroutines_leaked", float64(settledGoroutines()-goroutines0))
	m.set("client.segment_spread", spread(wallA))

	// Pass B: Observer and span recorder on.
	nB := w.units(cfg.scale, true)
	tr := newTracer()
	rec := trace.New(observerSpanLimit)
	b, err := open(w, params{cfg: cfg, obs: core.NewObserver(rec), tr: tr, tracedUnits: tracedSegments * nB}, &t, wd)
	if err != nil {
		return nil, t, err
	}
	reg := b.sc.session().Metrics()
	snap0 := reg.Snapshot()
	var b0, b1 runtime.MemStats
	runtime.ReadMemStats(&b0)
	tr.enable(true)
	segsB, err := segmentsFor(b.sc, nB, 0, tracedSegments, &t)
	tr.enable(false)
	if err != nil {
		return nil, t, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	runtime.ReadMemStats(&b1)
	snap1 := reg.Snapshot()
	obsSpans := rec.Spans()
	opsB := 0
	var wallB time.Duration
	for _, s := range segsB {
		opsB += s.ops
		wallB += s.wall
	}
	// Teardown joins the peer goroutines, so their span buffers are read
	// only after they have stopped writing them.
	if err := b.sc.teardown(); err != nil {
		return nil, t, fmt.Errorf("%s: teardown: %w", w.name, err)
	}
	sum := tr.summarize()
	b.sc.layer(m, pass{traced: true, ops: opsB, mallocs: b1.Mallocs - b0.Mallocs, sum: sum, delta: snap1.Delta(snap0), obs: obsSpans})
	switchMetrics(m, obsSpans, snap1)
	if sum.worst > 0 {
		return nil, t, fmt.Errorf("%s: a root span's children overran it by %d ns", w.name, sum.worst)
	}
	if _, err := tr.writeChrome(cfg.outDir, w.name); err != nil {
		return nil, t, fmt.Errorf("%s: writing trace: %w", w.name, err)
	}

	m.set("client.samples", float64(len(sum.opWall)))
	m.set("client.op_wall_us_p50", percentile(sum.opWall, 0.5))
	// With too few samples for any tail percentile both tail metrics are 0.
	rank, tail := tailRank(len(sum.opWall)), 0.0
	if rank > 0 {
		tail = percentile(sum.opWall, rank)
	}
	m.set("client.ptail_rank", 100*rank)
	m.set("client.op_wall_us_ptail", tail)
	m.set("trace.spans", float64(sum.spans))
	m.set("trace.dropped", float64(sum.dropped+rec.Dropped()))
	untraced := float64(opsA) / sumOf(wallA)
	m.set("trace.overhead_share", ratio(untraced, float64(opsB)/wallB.Seconds())-1)

	if err := runProbes(m, cfg); err != nil {
		return nil, t, err
	}
	fillUnset(m, perLayer)
	return m, t, nil
}

// observerSpanLimit bounds the Observer's virtual-time recorder; traced
// segments are sized to stay under it, and an overflow shows in
// trace.dropped.
const observerSpanLimit = 4 << 20

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// fillUnset reports 0 for every layer the workload did not exercise.
func fillUnset(m metricSet, defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// changing: the library's Shutdown and Close signal their workers and
// daemons without joining all of them, so a reading taken right after a
// teardown still sees goroutines on their way out.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 100 && same < 5; i++ {
		time.Sleep(time.Millisecond)
		if now := runtime.NumGoroutine(); now == n {
			same++
		} else {
			n, same = now, 0
		}
	}
	return n
}

// counterOf reads one counter of a snapshot delta (0 when absent).
func counterOf(s metrics.Snapshot, name string) float64 {
	v, _ := s.Counter(name)
	return float64(v)
}

// chanTotal sums one chan/<name>/<what> counter over every channel.
func chanTotal(s metrics.Snapshot, what string) float64 {
	total := 0.0
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "chan/") && strings.HasSuffix(c.Name, "/"+what) {
			total += float64(c.Value)
		}
	}
	return total
}

// switchMetrics reports the Switch step's work per core message: blocks,
// TM changes (from the channels' always-on counters) and BMM flushes (the
// Observer's C:commit and K:checkout spans). Spans and registry both cover
// the observed world's whole life, warm-up included, so the ratios are
// consistent.
func switchMetrics(m metricSet, spans []trace.Span, total metrics.Snapshot) {
	msgs := chanTotal(total, "msgs-out")
	m.set("core.blocks_per_msg", ratio(chanTotal(total, "blocks-out"), msgs))
	m.set("core.tm_switches_per_msg", ratio(chanTotal(total, "commits")+chanTotal(total, "checkouts"), msgs))
	commits, checkouts := 0.0, 0.0
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Label, "C:"):
			commits++
		case strings.HasPrefix(s.Label, "K:"):
			checkouts++
		}
	}
	m.set("core.commits_per_msg", ratio(commits, msgs))
	m.set("core.checkouts_per_msg", ratio(checkouts, msgs))
}
