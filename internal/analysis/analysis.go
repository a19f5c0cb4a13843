// Package analysis is a small static-analysis framework modeled on
// golang.org/x/tools/go/analysis, built only on the standard library so
// the repository stays dependency-free. It provides the Analyzer/Pass/
// Diagnostic vocabulary, a source-based package loader (loader.go), a
// statement-level control-flow graph (cfg.go), a call graph with
// bottom-up per-function facts (callgraph.go, summary.go), and the driver
// (run.go) that cmd/madvet and the madvet tests share. It exists for
// madvet's one analyzer, blockhold.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker: a name, a doc string shown by
// `madvet -h`, and a Run function applied once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("blockhold").
	Name string

	// Doc is the one-paragraph contract the analyzer enforces; the first
	// line is the summary.
	Doc string

	// Run applies the analyzer to one package. Findings are delivered
	// through pass.Reportf; the error return is for operational failures
	// (not findings) and aborts the whole run.
	Run func(pass *Pass) error

	// Summarize, if non-nil, computes the per-function facts this
	// analyzer reads back through Pass.Facts. The driver calls it once
	// per declared function, bottom-up over the call graph of every
	// loaded package, before any Run.
	Summarize func(fn *FuncInfo, facts *Facts)
}

// Pass carries one (analyzer, package) unit of work: the type-checked
// syntax of exactly one package plus the Reportf sink.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts holds what the analyzer's Summarize computed before the run
	// (nil when it has none — every lookup then answers "unknown").
	Facts *Facts

	// report delivers one diagnostic; installed by the driver.
	report func(Diagnostic)
}

// Reportf delivers a finding at pos, in the analyzer's category.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // the reporting analyzer's name
	Message  string
}

// Position resolves the diagnostic's file:line:col against a file set.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}
