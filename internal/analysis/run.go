package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Run applies every analyzer to every package and returns the combined
// findings, minus those suppressed by //madvet:ignore directives, in a
// stable (file, line, column, analyzer, message) order — raw token.Pos
// ordering would interleave arbitrarily across packages with separate
// position intervals, making the output differ from run to run.
// Analyzer errors (operational failures, not findings) abort the run.
//
// Before any analyzer runs, each analyzer's Summarize is executed
// bottom-up over the packages' call graph; its facts reach that
// analyzer's passes through Pass.Facts.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return run(pkgs, analyzers, true)
}

// RunUnit is Run for a subset of the module's packages (madvet
// ./internal/core). Packages outside the subset are loaded without
// function bodies, so may-block summaries stop at its edge and a
// directive justified by a finding only the whole-tree run can see is
// legitimately unused — the stale-directive diagnostic is skipped;
// everything else is checked identically.
func RunUnit(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return run(pkgs, analyzers, false)
}

func run(pkgs []*Package, analyzers []*Analyzer, flagStale bool) ([]Diagnostic, error) {
	facts := computeFacts(pkgs, analyzers)

	// Diagnostics are collected with their resolved positions: the sort
	// and the ignore filter both need file/line/column rather than raw
	// offsets.
	type entry struct {
		d   Diagnostic
		pos token.Position
	}
	var entries []entry
	for _, pkg := range pkgs {
		fset := pkg.Fset
		ignores := collectIgnores(pkg, analyzers)
		start := len(entries)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     facts[a],
				report:    func(d Diagnostic) { entries = append(entries, entry{d, fset.Position(d.Pos)}) },
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
		// Apply this package's suppression directives to this package's
		// findings, then report the directives' own problems (malformed,
		// unknown analyzer, suppressing nothing).
		if len(ignores) > 0 {
			kept := entries[:start]
			for _, e := range entries[start:] {
				if !suppress(ignores, e.d, e.pos) {
					kept = append(kept, e)
				}
			}
			entries = kept
		}
		for _, ig := range ignores {
			if d, bad := ig.problem(flagStale); bad {
				entries = append(entries, entry{d, fset.Position(d.Pos)})
			}
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.pos.Column != b.pos.Column {
			return a.pos.Column < b.pos.Column
		}
		if a.d.Category != b.d.Category {
			return a.d.Category < b.d.Category
		}
		return a.d.Message < b.d.Message
	})
	diags := make([]Diagnostic, len(entries))
	for i, e := range entries {
		diags[i] = e.d
	}
	return diags, nil
}

// CalleeObject resolves the called function or method object of a call
// expression, or nil (builtin, function value, conversion).
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified call
	}
	return nil
}

// TerminatingClassifier returns the CFG's never-returns predicate: panic
// is built in; this adds os.Exit, runtime.Goexit, log.Fatal*/Panic*, and
// testing's Fatal/Fatalf/Skip variants (method calls whose receiver comes
// from the testing package).
func TerminatingClassifier(info *types.Info) Terminating {
	return func(call *ast.CallExpr) bool {
		obj := CalleeObject(info, call)
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		switch obj.Pkg().Path() {
		case "os":
			return obj.Name() == "Exit"
		case "runtime":
			return obj.Name() == "Goexit"
		case "log":
			switch obj.Name() {
			case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
				return true
			}
		case "testing":
			switch obj.Name() {
			case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
				return true
			}
		}
		return false
	}
}
