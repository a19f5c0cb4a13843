// Command madping is the point-to-point latency/bandwidth tool: a
// Madeleine II ping-pong over any supported driver, the workload behind
// Fig. 4 and Fig. 5.
//
// Usage:
//
//	madping -driver sisci
//	madping -driver bip -min 4 -max 4194304
//	madping -driver bip -trace           # + span timeline, per-TM latencies
//	madping -trace -trace-json ping.json # + Chrome trace-event JSON
package main

import (
	"flag"
	"fmt"
	"os"

	"madeleine2/internal/bench"
	"madeleine2/internal/core"
	"madeleine2/internal/trace"
)

func main() {
	driver := flag.String("driver", "sisci", fmt.Sprintf("protocol module: %v", core.Drivers()))
	min := flag.Int("min", 4, "smallest message size (bytes)")
	max := flag.Int("max", 2<<20, "largest message size (bytes)")
	showTrace := flag.Bool("trace", false, "record spans: print an ASCII timeline, per-TM latency histograms and channel stats")
	traceJSON := flag.String("trace-json", "", "with -trace, also write a Chrome trace-event JSON file (chrome://tracing, Perfetto)")
	traceLimit := flag.Int("trace-limit", 16384, "span recorder capacity for -trace")
	flag.Parse()

	var obs *core.Observer
	if *showTrace || *traceJSON != "" {
		obs = core.NewObserver(trace.New(*traceLimit))
	}
	_, chans, err := bench.TwoNodes(*driver, obs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "madping: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("madping: Madeleine II over %s (virtual time)\n", *driver)
	fmt.Printf("%12s %14s %12s\n", "size", "one-way", "MB/s")
	for n := *min; n <= *max; n *= 4 {
		t, err := bench.PingPong(chans, 0, 1, n, 5)
		if err != nil {
			fmt.Fprintf(os.Stderr, "madping: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%12d %14v %12.1f\n", n, t, bench.Point{Size: n, OneWay: t}.Bandwidth())
	}

	if obs != nil {
		fmt.Println()
		if err := bench.TraceReport(os.Stdout, obs, *traceJSON); err != nil {
			fmt.Fprintf(os.Stderr, "madping: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nchannel stats (rank 0): %v\n", chans[0].Stats())
	}
}
