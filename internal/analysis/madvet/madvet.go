// Package madvet holds the project's custom analyzers: machine-checked
// versions of the contracts the library's correctness rests on but the
// compiler cannot see (DESIGN.md "Static analysis & invariants").
//
//	modeflags    statically invalid Pack/Unpack mode combinations (Table 1)
//	blockhold    no indefinite blocking while a lease or mutex is held
//	virtualtime  no time import in internal/ packages, no math/rand anywhere
//
// What a type or an API shape can hold is not here: metric names are
// checked by the registry that creates them, a TM has one identity
// because no library type wraps one, and every in-tree message is a
// core Channel.Send/Channel.Recv scope, which ends it on every path
// (Session.CheckQuiescent reports a Table-1 caller's missing End… at
// run time).
//
// Each analyzer matches the library's API shapes structurally (package
// named "core", method names, field names), so the analysistest fixtures
// can model them with small stub packages.
//
// modeflags is lexical, one function at a time. blockhold alone reads
// across calls: its may-block facts (mayblock.go) are computed bottom-up
// over the call graph before any analyzer runs.
package madvet

import (
	"go/ast"
	"go/types"

	"madeleine2/internal/analysis"
)

// Analyzers is the suite cmd/madvet runs, in reporting order.
var Analyzers = []*analysis.Analyzer{
	ModeFlags,
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
// literals, each analyzed as its own scope. lit is the literal whose body
// it is, nil for a declaration.
func funcBodies(files []*ast.File, fn func(lit *ast.FuncLit, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(nil, n.Body)
				}
			case *ast.FuncLit:
				// Statements inside a literal are expression territory to
				// the enclosing body's CFG, so each literal is analyzed as
				// its own scope; the walk continues into nested literals.
				fn(n, n.Body)
			}
			return true
		})
	}
}

// stmtHeaderScan invokes scan on the expressions the statement itself
// evaluates: the full subtree for simple statements, header expressions
// only for compound ones (their bodies are separate CFG nodes and must
// not leak into a node's classification).
func stmtHeaderScan(stmt ast.Stmt, scan func(ast.Node)) {
	switch s := stmt.(type) {
	case *ast.IfStmt:
		scan(s.Cond)
	case *ast.ForStmt:
		if s.Cond != nil {
			scan(s.Cond)
		}
	case *ast.RangeStmt:
		scan(s.X)
	case *ast.SwitchStmt:
		if s.Init != nil {
			scan(s.Init)
		}
		if s.Tag != nil {
			scan(s.Tag)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			scan(s.Init)
		}
		scan(s.Assign)
	case *ast.SelectStmt, *ast.BlockStmt, *ast.LabeledStmt:
		// Bodies are separate nodes; nothing evaluates at the header.
	default:
		scan(stmt)
	}
}

// stmtHasCall reports whether some call the statement itself evaluates
// (stmtHeaderScan's reach, deferred function literals included) satisfies
// pred.
func stmtHasCall(stmt ast.Stmt, pred func(*ast.CallExpr) bool) bool {
	found := false
	stmtHeaderScan(stmt, func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !found {
				found = pred(call)
			}
			return !found
		})
	})
	return found
}
