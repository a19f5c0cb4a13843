// Package analysis is a self-contained static-analysis framework modeled
// on golang.org/x/tools/go/analysis, built only on the standard library so
// the repository stays dependency-free. It provides the Analyzer/Pass/
// Diagnostic vocabulary, a source-based package loader (loader.go), a
// statement-level control-flow graph (cfg.go), and a driver (run.go) that
// cmd/madvet and the analyzer test harness share.
//
// The API is deliberately shaped like x/tools so the madvet analyzers
// could be ported to a stock multichecker by swapping one import if the
// dependency ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker: a name, a doc string shown by
// `madvet help`, and a Run function applied once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("modeflags") and in
	// //madvet:ignore directives.
	Name string

	// Doc is the one-paragraph contract the analyzer enforces; the first
	// line is the summary.
	Doc string

	// Run applies the analyzer to one package. Findings are delivered
	// through pass.Report; the error return is for operational failures
	// (not findings) and aborts the whole run.
	Run func(pass *Pass) error

	// Summarize, if non-nil, computes the per-function facts this
	// analyzer reads back through Pass.Facts. The driver calls it once
	// per declared function, bottom-up over the call graph of every
	// loaded package, before any Run.
	Summarize func(fn *FuncInfo, facts *Facts)
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one (analyzer, package) unit of work: the type-checked
// syntax of exactly one package plus the Report sink.
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

// Report delivers a finding.
func (p *Pass) Report(d Diagnostic) {
	if d.Category == "" {
		d.Category = p.Analyzer.Name
	}
	p.report(d)
}

// Reportf is the fmt-style convenience around Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name by default
	Message  string
}

// Position resolves the diagnostic's file:line:col against a file set.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}
