// Command madvet is the Madeleine invariant checker: a multichecker of
// the three analyzers in internal/analysis/madvet, enforcing the
// mode-flag/lease/virtual-time contracts the type system cannot. It loads the
// whole pattern in one run, so blockhold's may-block facts span packages:
//
//	go run ./cmd/madvet ./...
//	go run ./cmd/madvet ./internal/core
//	go run ./cmd/madvet -list
//
// Findings can be suppressed line by line with a justified directive —
// `//madvet:ignore <analyzer> -- <reason>` — which is itself checked
// (unknown analyzer, missing reason, or stale directives are diagnosed).
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"madeleine2/internal/analysis"
	"madeleine2/internal/analysis/madvet"
)

func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: madvet [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range madvet.Analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, strings.ReplaceAll(a.Doc, "\n", "\n                 "))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range madvet.Analyzers {
			fmt.Println(a.Name)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modPath, modDir, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "madvet:", err)
		return 2
	}
	loader := analysis.NewLoader(modPath, modDir)
	paths, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madvet:", err)
		return 2
	}
	pkgs, err := loader.Load(paths...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madvet:", err)
		return 2
	}
	// Stale-//madvet:ignore detection needs whole-module summaries: on a
	// package subset a directive justified by a cross-package finding
	// looks unused. Flag staleness only when the run covers the module.
	runner := analysis.RunUnit
	if wholeModule(loader, paths) {
		runner = analysis.Run
	}
	diags, err := runner(pkgs, madvet.Analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madvet:", err)
		return 2
	}

	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", d.Position(loader.Fset), d.Category, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// wholeModule reports whether the loaded paths cover every package of
// the module.
func wholeModule(loader *analysis.Loader, paths []string) bool {
	all, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		return false
	}
	have := make(map[string]bool, len(paths))
	for _, p := range paths {
		have[p] = true
	}
	for _, p := range all {
		if !have[p] {
			return false
		}
	}
	return true
}

// findModule walks up from the working directory to the enclosing go.mod.
func findModule() (path, dir string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return strings.TrimSpace(rest), dir, nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
