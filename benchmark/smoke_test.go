package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"madeleine2/internal/analysis"
	"madeleine2/internal/analysis/madvet"
)

// smokeConfig shrinks every segment to about 1% and runs the minimum number
// of segments, so the whole suite takes a few seconds.
func smokeConfig(t *testing.T) config {
	return config{seed: 11, seconds: 0, scale: 0.01, outDir: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, what string, defs []metricDef, got map[string]value) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestSmoke runs every workload untraced and traced (probes included) and
// checks the contract: every defined metric exactly once with its unit,
// nothing failed, the trace file written and well formed.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	for _, w := range workloads {
		res, err := runOne(w, cfg, false, newWatchdog())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, w.name, endToEnd, res.Metrics)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}

		res, err = runOne(w, cfg, true, newWatchdog())
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, w.name+" traced", perLayer, res.Metrics)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		if d := res.Metrics["trace.dropped"].Value; d != 0 {
			t.Errorf("%s traced: %v spans dropped", w.name, d)
		}
		if n := res.Metrics["trace.spans"].Value; n <= 0 {
			t.Errorf("%s traced: no spans recorded", w.name)
		}
		if leaked := res.Metrics["host.goroutines_leaked"].Value; leaked != 0 {
			t.Errorf("%s traced: %v goroutines outlived teardown", w.name, leaked)
		}
		checkTraceFile(t, filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
	}
}

// checkTraceFile verifies that within every thread each child span lies
// inside its parent, so child spans plus self time sum to the root.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Ts   float64
			Dur  float64
			Args struct{ Parent *int }
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	type ev struct{ ts, end float64 }
	threads := map[int][]ev{}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans++
		cur := ev{e.Ts, e.Ts + e.Dur}
		list := threads[e.Tid]
		if p := *e.Args.Parent; p >= 0 {
			if p >= len(list) {
				t.Errorf("%s: span %s names parent %d before it", path, e.Name, p)
			} else if par := list[p]; cur.ts < par.ts-0.002 || cur.end > par.end+0.002 {
				t.Errorf("%s: span %s [%f,%f] leaves its parent [%f,%f]", path, e.Name, cur.ts, cur.end, par.ts, par.end)
			}
		}
		threads[e.Tid] = append(list, cur)
	}
	if spans == 0 {
		t.Errorf("%s: no spans", path)
	}
}

// TestFlippedByteIsCounted corrupts one received payload per workload and
// expects the verifier to count exactly that operation as failed.
func TestFlippedByteIsCounted(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.flipOp = 1
	for _, w := range workloads {
		res, err := runOne(w, cfg, false, newWatchdog())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		// Set-up is repeated, and each repetition's first payload is hit.
		if res.Correct || res.Failed != setupReps {
			t.Errorf("%s: correct=%v failed=%d, want incorrect with %d failed", w.name, res.Correct, res.Failed, setupReps)
		}
	}
}

// TestManifest checks BENCHMARK.json against the tables the program
// reports from, and the contract's limits on names and counts.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `madperf -manifest`; regenerate it")
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
}

// TestMadvetClean runs the repository's invariant analyzers (packpair,
// reqpair, leaserelease, ...) over this package, as the whole-tree gate in
// internal/analysis/madvet does.
func TestMadvetClean(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader("madeleine2", root)
	pkgs, err := loader.Load("madeleine2/benchmark")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, madvet.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", d.Position(loader.Fset), d.Category, d.Message)
	}
}
