// Command madperf is the repository's benchmark: it measures the host cost
// of the Madeleine II library (wall time, CPU, allocations, live heap) next
// to the virtual time of the simulated hardware, on five closed-loop
// workloads, with a traced run that splits the cost by layer. See README.md.
//
// It builds its own worlds from the library packages and imports nothing
// from internal/bench, so refactors of the figure harness cannot change what
// is measured. It is one foreground process: no children, no listeners.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const defaultSeconds = 18

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	return m
}

// defsFor names the table a run reports from.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne is one contract invocation: one workload, traced or not.
func runOne(w workload, cfg config, traced bool, wd *watchdog) (result, error) {
	what := w.name
	if traced {
		what += " (traced)"
	}
	wd.arm(what, wd.limit(cfg.seconds))
	defer wd.disarm()
	run := runEndToEnd
	if traced {
		run = runTraced
	}
	m, t, err := run(w, cfg, wd)
	if err != nil {
		return result{}, err
	}
	vals, err := m.export(defsFor(traced))
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: vals}, nil
}

func printTable(w *bufio.Writer, title string, defs []metricDef, vals map[string]value) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.Name, v.Value, v.Unit)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "madperf: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 11, "seed for payload patterns, block sizes, the MoE routing table and the fault plan")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long the measured phase of a run lasts")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		scale    = flag.Float64("scale", 1, "scales every segment's operation count")
		outDir   = flag.String("out", "benchmark/out", "directory the traced run writes trace-<workload>.json to")
		recordTo = flag.String("record", "", "also add this run's result to the report file at this path (see report.sh)")
		compare  = flag.Bool("compare", false, "compare two reports: madperf -compare A.json B.json")
		showMan  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *showMan:
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\n", b)
		return
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare needs two report files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fail(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *seconds < 0 || *scale <= 0 {
		fail(fmt.Errorf("-seconds must be >= 0 and -scale > 0"))
	}

	// One P: every goroutine hand-off is a same-thread switch. On the
	// oversubscribed 2-vCPU reference box, hand-offs between two Ps stalled
	// for milliseconds whenever the hypervisor had the other vCPU
	// descheduled (fwd_bulk fell from 1478 to 337 op/s mid-run); with one P
	// quiet segments repeat within a few percent. The numbers are
	// single-core software cost, which is what the roadmap asks for.
	runtime.GOMAXPROCS(1)
	holdBallast()
	exitOnSignal()
	wd := newWatchdog()
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", ")))
	}
	res, err := runOne(w, cfg, *traced != 0, wd)
	if err != nil {
		fail(err)
	}
	printTable(out, fmt.Sprintf("%s seed=%d seconds=%g scale=%g trace=%d", w.name, *seed, *seconds, *scale, *traced), defsFor(*traced != 0), res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		out.Flush()
		fail(err)
	}
	fmt.Fprintf(out, "%s\n", line)
	if *recordTo != "" {
		if err := record(*recordTo, cfg, w.name, *traced != 0, res); err != nil {
			out.Flush()
			fail(err)
		}
	}
}

// report is what -record accumulates and -compare reads.
type report struct {
	Meta meta                        `json:"meta"`
	Runs []map[string]workloadReport `json:"runs"`
}

type meta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Date       string  `json:"date"`
}

type workloadReport struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record adds one invocation's result to the report at path, creating the
// file on first use. Every invocation is its own process, exactly like the
// regression gate's, so a report is comparable with the gate's numbers: a
// workload run later in a long-lived process would inherit the heap of
// the ones before it. The result fills the first run that still lacks this
// workload's end-to-end (or per-layer) half.
func record(path string, cfg config, workload string, traced bool, res result) error {
	rep, err := readReport(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		rep = &report{Meta: meta{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Go: runtime.Version(),
			Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Date: time.Now().UTC().Format("2006-01-02"),
		}}
	case err != nil:
		return err
	case rep.Meta.Seed != cfg.seed || rep.Meta.Scale != cfg.scale || rep.Meta.Seconds != cfg.seconds:
		return fmt.Errorf("%s was recorded with seed %d, scale %g, %g s; this run differs", path, rep.Meta.Seed, rep.Meta.Scale, rep.Meta.Seconds)
	}
	half := func(w workloadReport) map[string]value {
		if traced {
			return w.PerLayer
		}
		return w.EndToEnd
	}
	slot := 0
	for slot < len(rep.Runs) && half(rep.Runs[slot][workload]) != nil {
		slot++
	}
	if slot == len(rep.Runs) {
		rep.Runs = append(rep.Runs, map[string]workloadReport{})
	}
	w := rep.Runs[slot][workload]
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	w.Correct = w.Failed == 0
	if traced {
		w.PerLayer = res.Metrics
	} else {
		w.EndToEnd = res.Metrics
	}
	rep.Runs[slot][workload] = w
	return rep.write(path)
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// medianOf collects one metric across a report's runs.
func (r *report) medianOf(workload, metric string, perLayer bool) (float64, bool) {
	var xs []float64
	for _, run := range r.Runs {
		w, ok := run[workload]
		if !ok {
			continue
		}
		src := w.EndToEnd
		if perLayer {
			src = w.PerLayer
		}
		if v, ok := src[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}
