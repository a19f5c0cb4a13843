package madvet

import (
	"go/ast"
	"go/types"

	"madeleine2/internal/analysis"
)

// PackPair enforces the message-scope contract of the core pack/unpack
// interface (§2.2 and the PR 1 lease rules):
//
//   - the Connection returned by BeginPacking/BeginUnpacking must reach
//     the matching EndPacking/EndUnpacking on every control-flow path —
//     except paths that bail out through the failure branch of a
//     Pack/Unpack error, which per the abort contract has already closed
//     the connection and released the direction lease;
//   - after such a failure branch, the message must not keep packing;
//   - the error results of Begin/Pack/Unpack/End/Announce must not be
//     discarded (a deferred End is exempt: its lease release is the point).
//
// The check is lexical, like the paper's message scope: a connection that
// leaves the function that began it (returned, stored, passed on) is the
// recipient's to end and is not followed there — a documented false
// negative that no in-tree function exercises.
var PackPair = &analysis.Analyzer{
	Name: "packpair",
	Doc: "check that every BeginPacking/BeginUnpacking reaches its End on all paths\n" +
		"and that a non-nil Pack/Unpack error aborts the message instead of continuing",
	Run: runPackPair,
}

func runPackPair(pass *analysis.Pass) error {
	info := pass.TypesInfo
	checkDiscardedResults(pass)
	funcBodies(pass.Files, func(name string, body *ast.BlockStmt) {
		g := analysis.BuildCFG(body, analysis.TerminatingClassifier(info))
		for _, n := range g.Nodes {
			as, ok := n.Stmt.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				continue
			}
			_, begin, ok := isCoreMethod(info, call, "BeginPacking", "BeginUnpacking")
			if !ok {
				continue
			}
			connObj := defObj(info, as.Lhs[0])
			if connObj == nil {
				// `_, err := ch.BeginPacking(...)`: the lease can never be
				// released. (The fully discarded call is reported by the
				// result-discard scan.)
				pass.Reportf(as.Pos(), "connection returned by %s is discarded: its lease can never be released", begin)
				continue
			}
			if connEscapes(info, body, connObj) {
				continue // the message scope is the recipient's, not this function's
			}
			var beginGuard guardSpec
			if len(as.Lhs) == 2 {
				// A failed Begin returns a nil connection: the failure
				// branch of its err check never held the lease.
				beginGuard = guardSpec{obj: defObj(info, as.Lhs[1]), failMode: pairFree}
			}
			end, direction := "EndPacking", "send"
			if begin == "BeginUnpacking" {
				end, direction = "EndUnpacking", "receive"
			}
			pc := &pairCheck{
				g:       g,
				info:    info,
				acquire: n,
				guard:   beginGuard,
				classify: func(stmt ast.Stmt) pairEvent {
					return classifyConnStmt(info, stmt, connObj, end)
				},
				leak: func(leakNode *analysis.Node) {
					pos := as.Pos()
					where := ""
					if leakNode.Stmt != nil {
						pos = leakNode.Stmt.Pos()
						where = " here"
					}
					pass.Reportf(pos, "message from %s can end%s without %s: the %s lease leaks on this path",
						begin, where, end, direction)
				},
				abortedUse: func(stmt ast.Stmt) {
					pass.Reportf(stmt.Pos(), "message continues after a failed Pack/Unpack aborted it (%s contract: bail out instead)", begin)
				},
			}
			pc.run()
		}
	})
	return nil
}

// classifyConnStmt describes one statement's effect on the tracked
// connection's message scope.
func classifyConnStmt(info *types.Info, stmt ast.Stmt, connObj types.Object, end string) pairEvent {
	if d, ok := stmt.(*ast.DeferStmt); ok {
		if stmtCallsConnMethod(info, d, connObj, end) {
			return pairEvent{kind: pairEvDeferRelease}
		}
		return pairEvent{kind: pairEvNone}
	}
	// End anywhere in the statement (bare call, err assignment,
	// `return conn.EndPacking()`) closes the scope.
	if stmtCallsConnMethod(info, stmt, connObj, end) {
		return pairEvent{kind: pairEvRelease}
	}
	// An assignment from conn.Pack/conn.Unpack arms the abort guard.
	if as, ok := stmt.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
			if recv, _, ok := isCoreMethod(info, call, "Pack", "Unpack"); ok && recvRootObj(info, recv) == connObj {
				g := guardSpec{obj: defObj(info, as.Lhs[len(as.Lhs)-1]), failMode: pairAborted}
				return pairEvent{kind: pairEvAbortable, guard: g}
			}
		}
	}
	if stmtCallsConnMethod(info, stmt, connObj, "Pack") || stmtCallsConnMethod(info, stmt, connObj, "Unpack") {
		// Unguarded Pack/Unpack (bare or blank-assigned): state stays
		// held; the discarded result is reported separately.
		return pairEvent{kind: pairEvAbortable}
	}
	return pairEvent{kind: pairEvNone}
}

// stmtCallsConnMethod reports whether the statement itself (header only
// for compound statements) calls the named core method on the tracked
// connection.
func stmtCallsConnMethod(info *types.Info, stmt ast.Stmt, connObj types.Object, name string) bool {
	return stmtHasCall(stmt, func(call *ast.CallExpr) bool {
		recv, _, ok := isCoreMethod(info, call, name)
		return ok && recvRootObj(info, recv) == connObj
	})
}

// connEscapes reports whether the connection's ownership can leave the
// function: returned, passed as an argument, stored into a structure, or
// captured other than for method calls. Escaped connections are someone
// else's responsibility (e.g. a helper that Begins and hands the message
// to its caller).
func connEscapes(info *types.Info, body *ast.BlockStmt, connObj types.Object) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if ok {
			// conn.Method(...) or conn.field: receiver use, never an escape
			// by itself. Skip the X subtree so the ident is not revisited.
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == connObj {
				return false
			}
			return true
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == connObj {
			escapes = true
			return false
		}
		return true
	})
	return escapes
}

// defObj resolves the object defined (or assigned) by an assignment LHS
// identifier; nil for blank or non-identifier targets.
func defObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// checkDiscardedResults flags bare call statements that throw away the
// error of a message-path operation. An explicit `_ =` assignment is an
// opt-out (the author acknowledged the discard), as is a deferred End
// (its lease release is the point; there is no error path left to take).
func checkDiscardedResults(pass *analysis.Pass) {
	info := pass.TypesInfo
	msgMethods := []string{"Pack", "Unpack", "EndPacking", "EndUnpacking", "Announce"}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, name, ok := isCoreMethod(info, call, msgMethods...); ok {
				pass.Reportf(call.Pos(), "error of %s is discarded: a failed message-path operation must abort the message (use `_ =` to discard deliberately)", name)
			}
			return true
		})
	}
}
