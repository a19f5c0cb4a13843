package madvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"madeleine2/internal/analysis"
)

// summarizeMayBlock is blockhold's interprocedural half: per function, in
// bottom-up call-graph order, whether the body can wait indefinitely and
// why. It is what lets a span see through a call (pm2's Channel.Send
// under a mutex waits on the direction lease Send takes).
//
// False negatives are acceptable, false positives are not: anything
// unresolvable (interface calls, function values, bodiless packages,
// in-SCC recursion) has no summary and reads as "does not block".
func summarizeMayBlock(fi *analysis.FuncInfo, facts *analysis.Facts) {
	s := &analysis.Summary{}
	s.MayBlock, s.BlockWhy = bodyMayBlock(fi.Pkg.Info, facts, fi.Body())
	facts.SetSummary(fi.Fn, s)
}

// bodyMayBlock scans for statements that can wait indefinitely. Function
// literals and go statements are skipped — the block happens where the
// literal runs or in the spawned goroutine, not at this definition site.
// A select with a default clause polls its comm clauses instead of
// waiting on them, so their channel operations do not count (the closed-
// flag probe idiom: `select { case <-c.closed: ... default: }`).
//
// Channel sends deliberately do not count either: the codebase's sends
// are bounded handoffs to buffered channels (a lease release posting to
// its single waiter's cap-1 channel, the async engine posting a
// completion), and counting them would mark the entire message path
// may-block through core's lease release. blockhold still flags a send
// written directly inside a held span, where the author can see the
// channel; only the transitive summary leans toward false negatives.
func bodyMayBlock(info *types.Info, facts *analysis.Facts, body *ast.BlockStmt) (bool, string) {
	why := ""
	var scan func(root ast.Node)
	scan = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if why != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					why = "receives from a channel"
				}
			case *ast.RangeStmt:
				if isChanType(info.TypeOf(n.X)) {
					why = "ranges over a channel"
				}
			case *ast.SelectStmt:
				if !selectHasDefault(n) {
					why = "selects with no default"
					return false
				}
				// Polling select: comm statements never wait, but the
				// chosen case's body still runs to completion.
				for _, cl := range n.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							if why == "" {
								scan(s)
							}
						}
					}
				}
				return false
			case *ast.CallExpr:
				if w, ok := blockingCall(info, facts, n); ok {
					why = w
				}
			}
			return why == ""
		})
	}
	scan(body)
	return why != "", why
}

// blockingCall recognizes a call that can wait indefinitely: the lease
// acquire shape, core completion waits, sync waits, or a callee whose
// summary says it may block. Deliberately not blocking: sync.Mutex.Lock
// (bounded critical sections are the norm; treating every lock as a wait
// would drown the signal — blockhold instead treats a held mutex as a
// context).
func blockingCall(info *types.Info, facts *analysis.Facts, call *ast.CallExpr) (string, bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			obj := selection.Obj()
			name := obj.Name()
			path, _ := exprPath(info, sel.X)
			if path == "" {
				path = "the"
			}
			switch {
			case name == "acquire" && hasMethod(selection.Recv(), "release"):
				return "acquires the " + path + " lease", true
			case name == "Wait" && obj.Pkg() != nil && obj.Pkg().Path() == "sync":
				return "waits on " + path + ".Wait (sync." + namedTypeName(selection.Recv()) + ")", true
			case name == "Wait" && obj.Pkg() != nil && obj.Pkg().Name() == "core":
				return "waits on " + path + ".Wait", true
			case name == "WaitRecv":
				return "waits in " + path + ".WaitRecv", true
			}
		}
	}
	if fn, ok := analysis.CalleeObject(info, call).(*types.Func); ok {
		if s := facts.Summary(fn); s != nil && s.MayBlock {
			return "calls " + fn.Name() + ", which " + s.BlockWhy, true
		}
	}
	return "", false
}

func namedTypeName(t types.Type) string {
	if named, ok := derefType(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}
