package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// fakeReport builds a one-run report in which every end-to-end metric of
// every workload is 100 and the segment spread is given.
func fakeReport(t *testing.T, name string, spread float64, edit func(run map[string]workloadReport)) string {
	t.Helper()
	run := map[string]workloadReport{}
	for _, w := range workloads {
		wr := workloadReport{Correct: true, Attempted: 10, EndToEnd: map[string]value{}, PerLayer: map[string]value{}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = value{100, d.Unit}
		}
		wr.PerLayer["client.segment_spread"] = value{spread, "ratio"}
		run[w.name] = wr
	}
	if edit != nil {
		edit(run)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := (&report{Runs: []map[string]workloadReport{run}}).write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := fakeReport(t, "base.json", 0.01, nil)
	set := func(metric string, v float64) func(map[string]workloadReport) {
		return func(run map[string]workloadReport) {
			run["fwd_bulk"].EndToEnd[metric] = value{v, ""}
		}
	}
	for _, tc := range []struct {
		name      string
		next      string
		regressed bool
		want      string
	}{
		{"identical", fakeReport(t, "same.json", 0.01, nil), false, "ok"},
		{"slower beyond the bound", fakeReport(t, "slow.json", 0.01, set("ops_per_s", 70)), true, "REGRESSED"},
		{"faster is not a regression", fakeReport(t, "fast.json", 0.01, set("ops_per_s", 170)), false, "ok"},
		{"more allocations beyond the bound", fakeReport(t, "alloc.json", 0.01, set("allocs_per_op", 105)), true, "REGRESSED"},
		{"noisy host time is unresolved, not unchanged", fakeReport(t, "noisy.json", 0.5, set("ops_per_s", 70)), false, "unresolved"},
		{"a failed operation", fakeReport(t, "failed.json", 0.01, func(run map[string]workloadReport) {
			w := run["llm_lossy"]
			w.Failed = 1
			run["llm_lossy"] = w
		}), true, "REGRESSED"},
	} {
		var out strings.Builder
		regressed, err := compareFiles(&out, base, tc.next)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed=%v, want %v with %q in:\n%s", tc.name, regressed, tc.regressed, tc.want, out.String())
		}
	}
}

// TestRecord checks how invocations accumulate into runs of a report.
func TestRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	cfg := config{seed: 11, scale: 1, seconds: 10}
	res := result{Correct: true, Attempted: 5, Metrics: map[string]value{"ops_per_s": {1, "op/s"}}}
	for _, step := range []struct {
		workload string
		traced   bool
		runs     int
	}{
		{"fwd_bulk", false, 1}, {"fwd_bulk", true, 1}, {"llm_lossy", false, 1},
		{"fwd_bulk", false, 2}, {"llm_lossy", true, 2}, {"fwd_bulk", true, 2},
	} {
		if err := record(path, cfg, step.workload, step.traced, res); err != nil {
			t.Fatal(err)
		}
		rep, err := readReport(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Runs) != step.runs {
			t.Fatalf("after %s traced=%v: %d runs, want %d", step.workload, step.traced, len(rep.Runs), step.runs)
		}
	}
	rep, _ := readReport(path)
	if w := rep.Runs[0]["fwd_bulk"]; w.EndToEnd == nil || w.PerLayer == nil || w.Attempted != 10 || !w.Correct {
		t.Errorf("first run of fwd_bulk is %+v", w)
	}
	cfg.seed = 12
	if err := record(path, cfg, "fwd_bulk", false, res); err == nil {
		t.Errorf("recording a different seed into the same report must fail")
	}
}
