package madvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"madeleine2/internal/analysis"
)

// BlockHold flags operations that may block indefinitely while an
// exclusive context is held — the library's distributed-deadlock shape. A
// daemon that parks on a channel receive, a CQ wait, or a second lease
// acquisition while holding a direction lease or a mutex stalls every peer
// queued behind that context; with the forwarding gateways in the loop the
// stall propagates across nodes.
//
// Held contexts recognized:
//
//   - `x.acquire(a)` where x's type also has a release method (the core
//     direction lease), held until `x.release(...)`;
//   - `x.Lock()` / `x.RLock()` on a sync.Mutex/RWMutex, held until the
//     matching Unlock/RUnlock (a deferred unlock holds to function exit —
//     correct, and the span is checked to the end).
//
// Blocking operations flagged inside a span: channel sends and receives,
// ranging over a channel, select without default, another lease
// acquisition, core completion waits (CQ.Wait, WaitRecv), sync.WaitGroup
// waits, and calls whose interprocedural summary says they may block.
//
// Deliberate exemptions, tuned on the library's own code:
//
//   - sync.Mutex.Lock is a context, never a flagged blocker: lock nesting
//     over bounded critical sections is the codebase's norm (the async
//     engine posts completions under two mutexes) and flagging it would
//     drown the real findings;
//   - a direct sync.Cond.Wait statement is exempt — Wait atomically
//     releases the condvar's own mutex, which is exactly the held context
//     (the progress-engine worker idiom); it still counts as blocking in
//     summaries, so reaching one through a call chain under a *different*
//     lock is flagged;
//   - go statements (the spawned goroutine blocks, not the holder) and
//     defer statements (ordering against a deferred unlock is unknowable);
//   - channel sends count only when written directly in the span, never
//     through a callee's summary: the codebase's sends are bounded posts
//     to buffered channels (lease release, completion delivery), and
//     propagating them would mark the whole message path may-block.
var BlockHold = &analysis.Analyzer{
	Name: "blockhold",
	Doc: "flag operations that may block indefinitely (channel ops, lease acquire,\n" +
		"completion waits) while a direction lease or mutex is held",
	Run:       runBlockHold,
	Summarize: summarizeMayBlock,
}

// heldCtx is one exclusive context opened by a statement.
type heldCtx struct {
	path     string
	releases []string
	label    string
}

func runBlockHold(pass *analysis.Pass) error {
	info := pass.TypesInfo
	facts := pass.Facts
	// reported dedups (statement, context label): two acquire sites of the
	// same lock on different branches must not double-flag one wait.
	reported := make(map[ast.Stmt]map[string]bool)
	funcBodies(pass.Files, func(body *ast.BlockStmt) {
		g := analysis.BuildCFG(body, analysis.TerminatingClassifier(info))
		for _, n := range g.Nodes {
			h, ok := heldStart(info, n)
			if !ok {
				continue
			}
			flagSpan(pass, info, facts, g, n, h, reported)
		}
	})
	return nil
}

// heldStart recognizes a statement that opens a held context.
func heldStart(info *types.Info, n *analysis.Node) (heldCtx, bool) {
	es, ok := n.Stmt.(*ast.ExprStmt)
	if !ok {
		return heldCtx{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return heldCtx{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return heldCtx{}, false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return heldCtx{}, false
	}
	path, _ := exprPath(info, sel.X)
	if path == "" {
		return heldCtx{}, false
	}
	switch sel.Sel.Name {
	case "acquire":
		if hasMethod(selection.Recv(), "release") {
			return heldCtx{path: path, releases: []string{"release"},
				label: "the " + path + " direction lease"}, true
		}
	case "Lock", "RLock":
		obj := selection.Obj()
		if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
			return heldCtx{}, false
		}
		name := namedTypeName(selection.Recv())
		if name != "Mutex" && name != "RWMutex" {
			return heldCtx{}, false
		}
		rel := "Unlock"
		if sel.Sel.Name == "RLock" {
			rel = "RUnlock"
		}
		return heldCtx{path: path, releases: []string{rel},
			label: "the " + path + " mutex"}, true
	}
	return heldCtx{}, false
}

// flagSpan walks the CFG forward from the context-opening statement,
// stopping at releases, and reports every reachable blocking statement.
func flagSpan(pass *analysis.Pass, info *types.Info, facts *analysis.Facts, g *analysis.Graph, start *analysis.Node, h heldCtx, reported map[ast.Stmt]map[string]bool) {
	seen := make(map[*analysis.Node]bool)
	var stack []*analysis.Node
	pushSuccs := func(n *analysis.Node) {
		succs := n.Succs
		if n.Then != nil {
			succs = []*analysis.Node{n.Then, n.Else}
		}
		for _, s := range succs {
			if s != nil && s != g.Exit && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	pushSuccs(start)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Stmt != nil {
			_, isDefer := n.Stmt.(*ast.DeferStmt)
			if !isDefer && stmtReleasesPath(info, n.Stmt, h.path, h.releases) {
				continue // context closed: stop this branch of the walk
			}
			// A deferred release keeps the context to function exit: the
			// span correctly continues through it.
			if why, ok := stmtBlocks(info, facts, n.Stmt); ok {
				m := reported[n.Stmt]
				if m == nil {
					m = make(map[string]bool)
					reported[n.Stmt] = m
				}
				if !m[h.label] {
					m[h.label] = true
					pass.Reportf(n.Stmt.Pos(), "%s while %s is held: a blocked holder stalls every peer waiting on it", why, h.label)
				}
			}
		}
		pushSuccs(n)
	}
}

// stmtBlocks reports whether one statement can wait indefinitely, with a
// description. Compound statements contribute only their headers (bodies
// are separate CFG nodes); defer and go statements never block here.
func stmtBlocks(info *types.Info, facts *analysis.Facts, stmt ast.Stmt) (string, bool) {
	switch s := stmt.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return "", false
	case *ast.SendStmt:
		return "channel send", true
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			return "select with no default", true
		}
		return "", false
	case *ast.RangeStmt:
		if isChanType(info.TypeOf(s.X)) {
			return "ranging over a channel", true
		}
	}
	why := ""
	stmtHeaderScan(stmt, func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if why != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					why = "channel receive"
				}
			case *ast.CallExpr:
				if condWaitCall(info, n) {
					// Direct Cond.Wait releases the condvar's own mutex
					// while waiting: the worker idiom, not a deadlock.
					return false
				}
				if w, ok := blockingCall(info, facts, n); ok {
					why = w
				}
			}
			return why == ""
		})
	})
	return why, why != ""
}

// condWaitCall reports a direct sync.Cond.Wait call.
func condWaitCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	obj := selection.Obj()
	return obj.Name() == "Wait" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		namedTypeName(selection.Recv()) == "Cond"
}

// stmtReleasesPath reports whether the statement (header-only for
// compound statements, full subtree otherwise — including deferred
// function literals) calls path.<release>(...).
func stmtReleasesPath(info *types.Info, stmt ast.Stmt, path string, releases []string) bool {
	return stmtHasCall(stmt, func(call *ast.CallExpr) bool {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		for _, r := range releases {
			if sel.Sel.Name == r {
				if p, _ := exprPath(info, sel.X); p == path {
					return true
				}
			}
		}
		return false
	})
}

// hasMethod reports whether the (possibly pointer) receiver type has a
// method with the given name.
func hasMethod(t types.Type, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(derefType(t)))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// exprPath renders a pure identifier/selector chain ("lt.lease") and its
// root object; "" for anything more complex (calls, indexing), which the
// analyzer then leaves alone.
func exprPath(info *types.Info, e ast.Expr) (string, types.Object) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name, info.Uses[x]
	case *ast.SelectorExpr:
		p, root := exprPath(info, x.X)
		if p == "" {
			return "", nil
		}
		return p + "." + x.Sel.Name, root
	}
	return "", nil
}

// funcBodies yields every function body in the files: declarations and
// literals, each analyzed as its own scope.
func funcBodies(files []*ast.File, fn func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				// Statements inside a literal are expression territory to
				// the enclosing body's CFG, so each literal is analyzed as
				// its own scope; the walk continues into nested literals.
				fn(n.Body)
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
