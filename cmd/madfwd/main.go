// Command madfwd runs the §6.2 cluster-of-clusters forwarding experiment:
// an SCI cluster and a Myrinet cluster joined by a gateway node, with
// messages forwarded through the Generic TM's dual-buffered pipeline.
//
// Usage:
//
//	madfwd                      # SCI→Myrinet, 16 kB packets
//	madfwd -reverse -mtu 8192   # Myrinet→SCI with 8 kB packets
//	madfwd -control 45          # with the gateway bandwidth-control extension
//	madfwd -mtu 512 -fault-corrupt 0.01 -fault-drop 0.01 -trace
//	                            # hostile fabric: reliable mode + counters
//	madfwd -rails 2             # stripe both segments across two adapters
//	madfwd -fault-drop 0.02 -metrics-addr 127.0.0.1:9109 -metrics-hold 30s
//	                            # expose live counters for madtop / Prometheus
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"madeleine2/internal/bench"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/metrics"
	"madeleine2/internal/simnet"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
)

func main() {
	mtu := flag.Int("mtu", 16<<10, "forwarding packet size (MTU) in bytes")
	reverse := flag.Bool("reverse", false, "measure Myrinet→SCI instead of SCI→Myrinet")
	msg := flag.Int("msg", 2<<20, "message size in bytes")
	control := flag.Float64("control", 0, "gateway bandwidth control in MB/s (0 = off)")
	forceCopy := flag.Bool("force-copy", false, "disable the static-buffer hand-off (ablation)")
	showTrace := flag.Bool("trace", false, "print the whole path's span timeline and per-TM latencies")
	traceJSON := flag.String("trace-json", "", "with -trace, also write a Chrome trace-event JSON file")
	reliable := flag.Bool("reliable", false, "run the Generic TM's ACK/NACK reliable mode (implied by any -fault flag)")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "per-transfer single-byte corruption probability on every adapter")
	faultDrop := flag.Float64("fault-drop", 0, "per-transfer scrambled-frame (drop) probability on every adapter")
	faultDelay := flag.Float64("fault-delay", 0, "extra delivery delay in µs on every adapter")
	faultJitter := flag.Float64("fault-jitter", 0, "uniform extra delivery jitter in µs on every adapter")
	faultSeed := flag.Int64("fault-seed", 1, "seed of the deterministic fault stream")
	faultMin := flag.Int("fault-min", 0, "fault eligibility floor in bytes (0 = simnet default, sparing control frames)")
	retries := flag.Int("retries", 0, "reliable mode: max retransmits per packet (0 = default)")
	rails := flag.Int("rails", 1, "adapters per segment: >1 stripes each segment across that many rails")
	stripeSize := flag.Int("stripe-size", 0, "rail stripe chunk in bytes (0 = mtu/2, so forwarded packets actually stripe)")
	metricsAddr := flag.String("metrics-addr", "", "serve the session's metrics registry over HTTP on this address (e.g. 127.0.0.1:0)")
	metricsHold := flag.Duration("metrics-hold", 0, "with -metrics-addr, keep the endpoint up this long after the run (0 = close immediately)")
	flag.Parse()

	if *rails < 1 {
		fmt.Fprintln(os.Stderr, "madfwd: -rails must be at least 1")
		os.Exit(2)
	}
	stripe := *stripeSize
	if stripe == 0 {
		stripe = *mtu / 2
	}

	var plan *simnet.FaultPlan
	if *faultCorrupt > 0 || *faultDrop > 0 || *faultDelay > 0 || *faultJitter > 0 {
		plan = &simnet.FaultPlan{
			Seed:     *faultSeed,
			Corrupt:  *faultCorrupt,
			Drop:     *faultDrop,
			Delay:    int64(vclock.Micros(*faultDelay)),
			Jitter:   int64(vclock.Micros(*faultJitter)),
			MinBytes: *faultMin,
		}
	}
	hostile := plan != nil || *reliable

	var obs *core.Observer
	if *showTrace || *traceJSON != "" {
		obs = core.NewObserver(trace.New(1 << 16))
	}
	mutate := func(s *fwd.Spec) {
		s.BandwidthControl = *control
		s.ForceGatewayCopy = *forceCopy
		s.MaxRetries = *retries
	}
	vcs, err := bench.HetVC("madfwd", *mtu, *rails, stripe, plan, hostile, obs, mutate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "madfwd: %v\n", err)
		os.Exit(1)
	}
	defer bench.CloseVCs(vcs)

	sess := vcs[0].Session()
	if *metricsAddr != "" {
		srv, err := metrics.Serve(sess.Metrics(), *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "madfwd: metrics endpoint: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("madfwd: metrics at %s/metrics (Prometheus) and /metrics.json\n", srv.URL())
		if *metricsHold > 0 {
			defer func() {
				fmt.Printf("madfwd: holding metrics endpoint for %v (point madtop at %s)\n", *metricsHold, srv.URL())
				time.Sleep(*metricsHold)
			}()
		}
	}

	src, dst, dir := 0, 4, "SCI→Myrinet"
	if *reverse {
		src, dst, dir = 4, 0, "Myrinet→SCI"
	}
	t, err := bench.ForwardedStream(vcs, src, dst, *msg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "madfwd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("madfwd: %s through gateway node 2\n", dir)
	fmt.Printf("  message %d bytes, packets of %d bytes\n", *msg, *mtu)
	if *rails > 1 {
		fmt.Printf("  %d rails per segment, stripe %d bytes\n", *rails, stripe)
	}
	if *control > 0 {
		fmt.Printf("  gateway bandwidth control: %.0f MB/s incoming\n", *control)
	}
	fmt.Printf("  steady one-way: %v  →  %.1f MB/s\n", t, vclock.MBps(*msg, t))
	if hostile {
		// Every reliability counter and injected fault publishes into the
		// session registry, so one snapshot covers all ranks and adapters.
		snap := sess.Metrics().Snapshot()
		c := func(name string) int64 { v, _ := snap.Counter(name); return v }
		fmt.Printf("  reliability: %d packets, %d retransmits, %d acks, %d nacks (%d damaged), %d dup-suppressed, %d backoffs\n",
			c("fwd/rel/packet"), c("fwd/rel/retransmit"), c("fwd/rel/ack"), c("fwd/rel/nack"),
			c("fwd/rel/ctl-damaged"), c("fwd/rel/dup-suppressed"), c("fwd/rel/backoff"))
		fmt.Printf("  drops: header %d, len %d, crc %d, route %d, closed %d\n",
			c("fwd/drop/header"), c("fwd/drop/len"), c("fwd/drop/crc"), c("fwd/drop/route"), c("fwd/drop/closed"))
		if plan != nil {
			fmt.Printf("  faults injected: %d corrupted, %d dropped, %d delayed\n",
				c("fault/corrupted"), c("fault/dropped"), c("fault/delayed"))
		}
	}
	if obs != nil {
		fmt.Println()
		if err := bench.TraceReport(os.Stdout, obs, *traceJSON); err != nil {
			fmt.Fprintf(os.Stderr, "madfwd: %v\n", err)
			os.Exit(1)
		}
	}
}
