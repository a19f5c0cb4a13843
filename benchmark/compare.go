package main

import (
	"fmt"
	"io"
)

// hostTimed reports whether a metric is a wall-clock or CPU time, the kind
// whose run-to-run noise client.segment_spread describes. Counts and
// virtual time repeat (almost) exactly and are always resolvable.
func hostTimed(d metricDef) bool { return d.Unit == "s" || d.Unit == "us" || d.Unit == "op/s" }

// compareFiles applies each end-to-end metric's bound to every (workload,
// metric) pair of two reports, base first. A pair is a regression when the
// second report's median is worse than the first's by more than the bound;
// it is unresolved, not unchanged, when the segment spread of either side
// exceeds the bound. Any rise in failed operations is a regression.
func compareFiles(w io.Writer, basePath, newPath string) (regressed bool, err error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	if len(base.Runs) == 0 || len(cur.Runs) == 0 {
		return false, fmt.Errorf("a report holds no runs")
	}
	fmt.Fprintf(w, "base %s: %d run(s), seed %d, scale %g, %d s, %s, %s\n", basePath, len(base.Runs),
		base.Meta.Seed, base.Meta.Scale, int(base.Meta.Seconds), base.Meta.CPU, base.Meta.Go)
	fmt.Fprintf(w, "new  %s: %d run(s), seed %d, scale %g, %d s, %s, %s\n", newPath, len(cur.Runs),
		cur.Meta.Seed, cur.Meta.Scale, int(cur.Meta.Seconds), cur.Meta.CPU, cur.Meta.Go)
	fmt.Fprintf(w, "%-15s %-19s %14s %14s %8s %6s %13s  %s\n",
		"workload", "metric", "base", "new", "delta", "bound", "spread b/n", "verdict")
	for _, wl := range workloads {
		sb, _ := base.medianOf(wl.name, "client.segment_spread", true)
		sn, _ := cur.medianOf(wl.name, "client.segment_spread", true)
		for _, d := range endToEnd {
			b, okB := base.medianOf(wl.name, d.Name, false)
			n, okN := cur.medianOf(wl.name, d.Name, false)
			if !okB || !okN {
				fmt.Fprintf(w, "%-15s %-19s missing from a report\n", wl.name, d.Name)
				regressed = true
				continue
			}
			delta := ratio(n-b, b)
			worse := delta
			if d.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			switch {
			case hostTimed(d) && (sb > d.Bound || sn > d.Bound):
				verdict = "unresolved (spread > bound)"
			case worse > d.Bound:
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-19s %14.4f %14.4f %+7.2f%% %5.1f%% %6.3f/%6.3f  %s\n",
				wl.name, d.Name, b, n, 100*delta, 100*d.Bound, sb, sn, verdict)
		}
		fb, fn := failedOf(base, wl.name), failedOf(cur, wl.name)
		verdict := "ok"
		if fn > fb {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "%-15s %-19s %14d %14d %40s\n", wl.name, "failed_ops", fb, fn, verdict)
	}
	return regressed, nil
}

func failedOf(r *report, workload string) int64 {
	var worst int64
	for _, run := range r.Runs {
		if f := run[workload].Failed; f > worst {
			worst = f
		}
	}
	return worst
}
