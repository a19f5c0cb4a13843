package bench

import (
	"fmt"
	"io"
	"os"
	"strings"

	"madeleine2/internal/core"
)

// TraceReport renders what an observed run's sink caught: the virtual-time
// span timeline and the per-TM latency histograms with the event counters.
// With jsonPath it also writes the spans in Chrome trace-event form.
func TraceReport(w io.Writer, obs *core.Observer, jsonPath string) error {
	fmt.Fprint(w, obs.Recorder().Timeline(100))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-TM transfer latency (virtual time):")
	fmt.Fprint(w, obs.Report())
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := obs.Recorder().Chrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", jsonPath)
	return nil
}

// Table renders a Result as fixed-width text: one row per size, one
// bandwidth/latency column pair per series, followed by the paper-vs-
// measured anchor lines. This is what madbench prints and what
// EXPERIMENTS.md embeds.
func (r Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(r.ID), r.Title)
	if len(r.Series) > 0 {
		// Union of sizes across series, in first-series order.
		var sizes []int
		seen := map[int]bool{}
		for _, s := range r.Series {
			for _, p := range s.Points {
				if !seen[p.Size] {
					seen[p.Size] = true
					sizes = append(sizes, p.Size)
				}
			}
		}
		fmt.Fprintf(&b, "%12s", "size")
		for _, s := range r.Series {
			fmt.Fprintf(&b, " | %24s", trunc(s.Name, 24))
		}
		fmt.Fprintln(&b)
		fmt.Fprintf(&b, "%12s", "")
		for range r.Series {
			fmt.Fprintf(&b, " | %11s %12s", "one-way", "MB/s")
		}
		fmt.Fprintln(&b)
		for _, n := range sizes {
			fmt.Fprintf(&b, "%12s", sizeLabel(n))
			for _, s := range r.Series {
				if p, ok := s.At(n); ok {
					fmt.Fprintf(&b, " | %11s %12.1f", p.OneWay, p.Bandwidth())
				} else {
					fmt.Fprintf(&b, " | %11s %12s", "-", "-")
				}
			}
			fmt.Fprintln(&b)
		}
	}
	for _, a := range r.Anchors {
		fmt.Fprintf(&b, "  anchor %-28s paper %8.1f  measured %8.1f  (%+5.1f%%)  %s\n",
			a.Name+":", a.Paper, a.Measured, a.Delta()*100, a.Unit)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", r.Notes)
	}
	return b.String()
}

// Markdown renders the Result as a Markdown section for EXPERIMENTS.md.
func (r Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(r.ID), r.Title)
	if len(r.Anchors) > 0 {
		fmt.Fprintf(&b, "| anchor | paper | measured | delta | unit |\n|---|---|---|---|---|\n")
		for _, a := range r.Anchors {
			fmt.Fprintf(&b, "| %s | %.1f | %.1f | %+.1f%% | %s |\n",
				a.Name, a.Paper, a.Measured, a.Delta()*100, a.Unit)
		}
		fmt.Fprintln(&b)
	}
	if len(r.Series) > 0 {
		fmt.Fprintf(&b, "| size |")
		for _, s := range r.Series {
			fmt.Fprintf(&b, " %s (MB/s) |", s.Name)
		}
		fmt.Fprintln(&b)
		fmt.Fprintf(&b, "|---|")
		for range r.Series {
			fmt.Fprintf(&b, "---|")
		}
		fmt.Fprintln(&b)
		var sizes []int
		seen := map[int]bool{}
		for _, s := range r.Series {
			for _, p := range s.Points {
				if !seen[p.Size] {
					seen[p.Size] = true
					sizes = append(sizes, p.Size)
				}
			}
		}
		for _, n := range sizes {
			fmt.Fprintf(&b, "| %s |", sizeLabel(n))
			for _, s := range r.Series {
				if p, ok := s.At(n); ok {
					fmt.Fprintf(&b, " %.1f |", p.Bandwidth())
				} else {
					fmt.Fprintf(&b, " – |")
				}
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintln(&b)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "*%s*\n\n", r.Notes)
	}
	return b.String()
}

// sizeLabel formats a byte count the way the figures label their axes.
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d MB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%d kB", n>>10)
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
