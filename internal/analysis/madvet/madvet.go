// Package madvet holds the project's custom analyzers: machine-checked
// versions of the contracts the library's correctness rests on but the
// compiler cannot see (DESIGN.md "Static analysis & invariants").
//
//	packpair     Begin/End pairing and abort-on-error on the message path
//	reqpair      async Submit* requests drained (CQ/callback) or Discarded
//	modeflags    statically invalid Pack/Unpack mode combinations (Table 1)
//	leaserelease lease/token acquire paired with release on every path
//	blockhold    no indefinite blocking while a lease or mutex is held
//	virtualtime  no time import in internal/ packages, no math/rand anywhere
//
// What a type or an API shape can hold is not here: metric names are
// checked by the registry that creates them, and a TM has one identity
// because no library type wraps one.
//
// Each analyzer matches the library's API shapes structurally (package
// named "core", method names, field names), so the analysistest fixtures
// can model them with small stub packages.
//
// The pairing analyzers and blockhold share one interprocedural
// Summarizer (ownership.go): per-function ownership and may-block facts
// computed bottom-up over the call graph before any analyzer runs, which
// lets them follow a resource that is returned, stored, or passed to a
// callee instead of exempting it.
package madvet

import (
	"go/ast"
	"go/types"

	"madeleine2/internal/analysis"
)

// Analyzers is the suite cmd/madvet runs, in reporting order.
var Analyzers = []*analysis.Analyzer{
	PackPair,
	ReqPair,
	ModeFlags,
	LeaseRelease,
	BlockHold,
	VirtualTime,
}

// isCoreMethod reports whether the call is a method call named name whose
// method is defined in a package named "core" (the real core package or a
// fixture stub), returning the receiver expression.
func isCoreMethod(info *types.Info, call *ast.CallExpr, names ...string) (recv ast.Expr, name string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, "", false
	}
	selection, okSelection := info.Selections[sel]
	if !okSelection || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "core" {
		return nil, "", false
	}
	for _, n := range names {
		if obj.Name() == n {
			return sel.X, n, true
		}
	}
	return nil, "", false
}

// isMethodNamed is isCoreMethod without the package anchor. Events on an
// already-tracked object — Pack/Unpack/End on the value a Begin handed
// out, Discard on a submitted request — match by name alone, so a policy
// wrapper that re-implements a core method around an embedded Connection
// (marcel.Conn.Unpack) carries the same contract. Acquisitions stay
// core-anchored (or summary-proven): only the anchor creates tracking.
func isMethodNamed(info *types.Info, call *ast.CallExpr, names ...string) (recv ast.Expr, name string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, "", false
	}
	selection, okSelection := info.Selections[sel]
	if !okSelection || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	for _, n := range names {
		if selection.Obj().Name() == n {
			return sel.X, n, true
		}
	}
	return nil, "", false
}

// recvRootObj resolves the root identifier object of a receiver
// expression: conn in `conn.Pack(...)`, cs in `cs.send.acquire(...)`.
func recvRootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcBodies yields every function body in the files: declarations and
// literals, each analyzed as its own scope.
func funcBodies(files []*ast.File, fn func(name string, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Name.Name, n.Body)
				}
			case *ast.FuncLit:
				// Statements inside a literal are expression territory to
				// the enclosing body's CFG, so each literal is analyzed as
				// its own scope; the walk continues into nested literals.
				fn("func literal", n.Body)
			}
			return true
		})
	}
}
