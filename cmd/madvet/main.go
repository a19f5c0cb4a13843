// Command madvet is the Madeleine invariant checker: it runs the analyzer
// in internal/analysis/madvet (blockhold: no indefinite blocking while a
// direction lease or mutex is held). It loads the whole pattern in one
// run, so blockhold's may-block facts span the loaded packages:
//
//	go run ./cmd/madvet ./...
//	go run ./cmd/madvet ./internal/core
//	go run ./cmd/madvet -list
//
// There is no suppression directive: a finding is fixed in the code.
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
	diags, err := analysis.Run(pkgs, madvet.Analyzers)
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
