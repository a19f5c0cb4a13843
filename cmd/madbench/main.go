// Command madbench regenerates the paper's evaluation: every figure of §5
// and §6.2, the §6.2.1 packet-size analysis, and the ablation studies of
// the design choices DESIGN.md calls out.
//
// Usage:
//
//	madbench                  # run everything, print tables
//	madbench -fig 10          # one figure (4, 5, 6, 7, 10, 11, crossover, stripe, rdma, coll, llm)
//	madbench -fig coll        # topology-aware collectives vs. the linear baseline
//	madbench -fig llm         # LLM-fabric traffic worlds on the lossy two-cluster fabric
//	madbench -fig stripe -rails 1,2,4   # multi-rail scaling at those rail counts
//	madbench -ablations       # only the ablations
//	madbench -markdown X.md   # also write the EXPERIMENTS.md content
//	madbench -json out.json   # also write the results as JSON
//	madbench -trace           # traced representative workload afterwards
//	madbench -metrics METRICS_bench.json   # metrics-plane snapshot artifact
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"madeleine2/internal/bench"
	"madeleine2/internal/core"
	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
)

func main() {
	fig := flag.String("fig", "all", "which figure to reproduce: all, 4, 5, 6, 7, crossover, 10, 11, stripe, async, rdma, coll, llm")
	rails := flag.String("rails", "1,2,4", "rail counts for the stripe figure, comma-separated")
	stripeSize := flag.Int("stripe-size", 0, "stripe chunk size in bytes for the stripe figure (0 = library default)")
	asyncWorkers := flag.Int("async-workers", 64, "progress-engine worker count for the async figure")
	asyncConns := flag.String("async-conns", "", "conversation counts for the async figure, comma-separated (default 1000,10000,100000)")
	ablations := flag.Bool("ablations", false, "run only the ablation studies")
	markdown := flag.String("markdown", "", "write the results as Markdown to this file")
	jsonOut := flag.String("json", "", "write the results as JSON to this file")
	plot := flag.Bool("plot", false, "render each figure as an ASCII chart too")
	showTrace := flag.Bool("trace", false, "run a traced representative workload afterwards: ASCII timeline + per-TM latency histograms")
	traceJSON := flag.String("trace-json", "", "with -trace, also write a Chrome trace-event JSON file")
	metricsOut := flag.String("metrics", "", "run an instrumented lossy-forwarding workload and write its metrics snapshot as JSON to this file")
	flag.Parse()

	var results []bench.Result
	var err error
	switch {
	case *ablations:
		results, err = bench.AllAblations()
	case *fig == "all":
		results, err = bench.AllFigures()
		if err == nil {
			var abl []bench.Result
			abl, err = bench.AllAblations()
			results = append(results, abl...)
		}
	case *fig == "async":
		var scales []int
		if *asyncConns != "" {
			scales, err = parseCounts(*asyncConns, "-async-conns")
		}
		if err == nil {
			var r bench.Result
			r, err = bench.AsyncScale(scales, *asyncWorkers)
			results = []bench.Result{r}
		}
	case *fig == "stripe":
		var counts []int
		counts, err = parseRails(*rails)
		if err == nil {
			var r bench.Result
			r, err = bench.StripeScaling("tcp", counts, *stripeSize)
			results = []bench.Result{r}
		}
	default:
		fns := map[string]func() (bench.Result, error){
			"4": bench.Fig4, "5": bench.Fig5, "6": bench.Fig6, "7": bench.Fig7,
			"crossover": bench.Crossover, "10": bench.Fig10, "11": bench.Fig11,
			"rdma": bench.RDMACrossover, "coll": bench.CollFigure, "llm": bench.LLMFigure,
		}
		f, ok := fns[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "madbench: unknown figure %q\n", *fig)
			os.Exit(2)
		}
		var r bench.Result
		r, err = f()
		results = []bench.Result{r}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
		os.Exit(1)
	}

	fmt.Println(banner())
	for _, r := range results {
		fmt.Println(r.Table())
		if *plot {
			if p := r.Plot(72, 16); p != "" {
				fmt.Println(p)
			}
		}
	}

	if *markdown != "" {
		var b strings.Builder
		b.WriteString(markdownHeader())
		for _, r := range results {
			b.WriteString(r.Markdown())
		}
		if err := os.WriteFile(*markdown, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *markdown)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *showTrace || *traceJSON != "" {
		if err := tracedWorkload(*traceJSON); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
	}
	if *metricsOut != "" {
		if err := metricsSnapshot(*metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// metricsSnapshot runs a representative instrumented workload — a
// reliable SCI→Myrinet forwarded stream over a lossy fabric — and writes
// the session registry's snapshot as JSON, so CI can archive the metrics
// plane's view of a run.
func metricsSnapshot(path string) error {
	plan := &simnet.FaultPlan{Seed: 7, Corrupt: 0.01, Drop: 0.01}
	vcs, err := bench.HetVC(bench.NextName("metrics"), 4<<10, 1, 0, plan, true, nil, nil)
	if err != nil {
		return err
	}
	defer bench.CloseVCs(vcs)
	if _, err := bench.ForwardedStream(vcs, 0, 4, 256<<10); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := vcs[0].Session().Metrics().Snapshot().JSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// parseRails parses the -rails flag's comma-separated rail counts.
func parseRails(s string) ([]int, error) { return parseCounts(s, "-rails") }

// parseCounts parses a comma-separated list of positive counts.
func parseCounts(s, flagName string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad %s value %q (want comma-separated counts >= 1)", flagName, part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("%s lists no counts", flagName)
	}
	return counts, nil
}

// tracedWorkload reruns a representative slice of the evaluation — a
// Myrinet ping-pong and a forwarded SCI→Myrinet stream — with the
// session observer installed, then renders what the sink caught: the
// virtual-time span timeline, the per-TM latency histograms and the
// channel accounting. With jsonPath it also writes the spans in Chrome
// trace-event form.
func tracedWorkload(jsonPath string) error {
	obs := core.NewObserver(trace.New(1 << 16))

	_, chans, err := bench.TwoNodes("bip", obs)
	if err != nil {
		return err
	}
	pp, err := bench.PingPong(chans, 0, 1, 4<<10, 5)
	if err != nil {
		return err
	}

	vcs, err := bench.HetVC(bench.NextName("traced"), 16<<10, 1, 0, nil, false, obs, nil)
	if err != nil {
		return err
	}
	defer bench.CloseVCs(vcs)
	fw, err := bench.ForwardedStream(vcs, 0, 4, 256<<10)
	if err != nil {
		return err
	}

	fmt.Println("traced workload: bip ping-pong (4 kB) + SCI→Myrinet forwarded stream (256 kB)")
	fmt.Printf("  ping-pong one-way %v, forwarded stream %.1f MB/s\n\n", pp, vclock.MBps(256<<10, fw))
	return bench.TraceReport(os.Stdout, obs, jsonPath)
}

func banner() string {
	return fmt.Sprintf(`Madeleine II reproduction — virtual-time measurement run
drivers: %v
testbed model: dual PII-450, 33 MHz 32-bit PCI (one-way cap %.0f MB/s,
aggregate %.0f MB/s, DMA-over-PIO penalty x%.2f), gateway step %v
`,
		core.Drivers(), model.DefaultPCI().OneWayCap,
		model.DefaultPCI().AggregateCap, model.DefaultPCI().PIOPenalty,
		model.GatewayStepOverhead)
}

func markdownHeader() string {
	return `# EXPERIMENTS — paper vs. measured

Generated by ` + "`go run ./cmd/madbench -markdown EXPERIMENTS.md`" + `.

All measurements are **virtual time** over the simulated 1999 testbed
(calibrated models in internal/model; see DESIGN.md §2 for the
substitution table). Absolute agreement with the paper is expected only at
the calibration anchors; everywhere else the claim is that the *shape* —
who wins, by what factor, where the knees and crossovers fall — matches
the paper. 1 MB/s = 1e6 bytes/s, as in the paper's figures.

`
}
