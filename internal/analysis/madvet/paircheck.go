package madvet

import (
	"go/ast"
	"go/token"
	"go/types"

	"madeleine2/internal/analysis"
)

// paircheck is packpair's acquire/release dataflow: from one acquire
// site, walk the CFG and prove that every exit either released the
// resource, registered a deferred release, or crossed the failure branch
// of a guard whose failing operation already gave the resource up (the
// abort contract of Pack/Unpack, the nil connection of a failed Begin).
//
// The state machine is deliberately tiny: {held, free, aborted} plus one
// "pending guard" slot holding the variable assigned by the immediately
// preceding acquire/abortable statement. A guard is only honored when its
// if-test directly follows the assignment (the library's universal idiom),
// which keeps the dataflow exact without general reaching definitions.

type pairMode uint8

const (
	pairHeld pairMode = iota
	pairFree
	// pairAborted: the failing operation released the resource itself;
	// exits are fine but continuing to use it is a bug packpair reports.
	pairAborted
)

// guardSpec names a variable whose non-success value proves the resource
// is not held, and the mode the failure branch lands in.
type guardSpec struct {
	obj      types.Object // err or ok variable; nil = no guard
	failMode pairMode     // pairFree (never acquired) or pairAborted
}

type pairState struct {
	mode    pairMode
	pending guardSpec // guard armed by the immediately preceding statement
}

// pairEvent classifies one statement's effect on the resource.
type pairEvent struct {
	kind  pairEventKind
	guard guardSpec // for pairEvAbortable
}

type pairEventKind uint8

const (
	pairEvNone pairEventKind = iota
	pairEvRelease
	pairEvDeferRelease
	// pairEvAbortable: an operation that may fail; its guard's failure
	// branch means the resource was already given up.
	pairEvAbortable
)

type pairCheck struct {
	g       *analysis.Graph
	info    *types.Info
	acquire *analysis.Node
	guard   guardSpec // guard produced by the acquire statement itself
	// classify describes a statement's effect (never called for the
	// acquire node itself).
	classify func(stmt ast.Stmt) pairEvent
	// leak is invoked once per exit-feeding node through which the
	// resource can still be held.
	leak func(n *analysis.Node)
	// abortedUse is invoked for statements that keep using the resource
	// after an abort was proven (nil = not tracked).
	abortedUse func(stmt ast.Stmt)
}

func (pc *pairCheck) run() {
	type work struct {
		n  *analysis.Node
		st pairState
	}
	seen := make(map[*analysis.Node]map[pairState]bool)
	leaked := make(map[*analysis.Node]bool)
	abused := make(map[ast.Stmt]bool)
	var queue []work
	push := func(n *analysis.Node, st pairState) {
		if n == nil {
			return
		}
		if n == pc.g.Exit {
			return // exits handled at the propagating node
		}
		m := seen[n]
		if m == nil {
			m = make(map[pairState]bool)
			seen[n] = m
		}
		if !m[st] {
			m[st] = true
			queue = append(queue, work{n, st})
		}
	}

	// The acquire node's own out-state: held, guard armed.
	start := pairState{mode: pairHeld, pending: pc.guard}
	pc.propagate(pc.acquire, start, push, leaked, abused)
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		st := pc.transfer(w.n, w.st, abused)
		pc.propagate(w.n, st, push, leaked, abused)
	}
}

// transfer applies the node's statement to the state.
func (pc *pairCheck) transfer(n *analysis.Node, st pairState, abused map[ast.Stmt]bool) pairState {
	if n.Stmt == nil {
		return st // synthetic join/entry: guard adjacency survives
	}
	ev := pc.classify(n.Stmt)
	switch ev.kind {
	case pairEvRelease, pairEvDeferRelease:
		return pairState{mode: pairFree}
	case pairEvAbortable:
		if st.mode == pairAborted && pc.abortedUse != nil && !abused[n.Stmt] {
			abused[n.Stmt] = true
			pc.abortedUse(n.Stmt)
		}
		if st.mode == pairHeld {
			return pairState{mode: pairHeld, pending: ev.guard}
		}
		return pairState{mode: st.mode}
	default:
		if _, ok := n.Stmt.(*ast.IfStmt); ok {
			// The if-test itself must not disarm the guard: propagate
			// consumes (or clears) the pending slot when splitting here.
			return st
		}
		return pairState{mode: st.mode} // any other statement disarms the guard
	}
}

// propagate pushes the out-state to successors, splitting at a guard test
// and reporting leaks at edges into Exit.
func (pc *pairCheck) propagate(n *analysis.Node, st pairState, push func(*analysis.Node, pairState), leaked map[*analysis.Node]bool, abused map[ast.Stmt]bool) {
	if ifs, ok := n.Stmt.(*ast.IfStmt); ok && n.Then != nil {
		thenSt, elseSt := st, st
		if st.pending.obj != nil {
			if branch := guardFailureBranch(pc.info, ifs.Cond, st.pending.obj); branch != 0 {
				fail := pairState{mode: st.pending.failMode}
				okSt := pairState{mode: st.mode}
				if branch > 0 {
					thenSt, elseSt = fail, okSt
				} else {
					thenSt, elseSt = okSt, fail
				}
			} else {
				thenSt.pending, elseSt.pending = guardSpec{}, guardSpec{}
			}
		}
		push(n.Then, thenSt)
		push(n.Else, elseSt)
		return
	}
	for _, s := range n.Succs {
		if s == pc.g.Exit {
			if st.mode == pairHeld && !leaked[n] {
				leaked[n] = true
				pc.leak(n)
			}
			continue
		}
		push(s, st)
	}
}

// guardFailureBranch decides which branch of the condition corresponds to
// the guard variable's failure value: +1 = then, -1 = else, 0 = the
// condition does not (simply) test the guard.
//
//	err != nil → then    err == nil → else
//	!ok        → then    ok         → else
//	A || B     → a matched then-operand stays then
//	A && B     → a matched else-operand stays else
func guardFailureBranch(info *types.Info, cond ast.Expr, obj types.Object) int {
	uses := func(id *ast.Ident) bool { return id != nil && info.Uses[id] == obj }
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.NEQ, token.EQL:
			id, isNil := nilCompare(e)
			if id == nil || !isNil {
				return 0
			}
			if uses(id) {
				if e.Op == token.NEQ {
					return 1
				}
				return -1
			}
			return 0
		case token.LOR:
			// err != nil || other: then-branch contains every failure path.
			if guardFailureBranch(info, e.X, obj) == 1 || guardFailureBranch(info, e.Y, obj) == 1 {
				return 1
			}
			return 0
		case token.LAND:
			// err == nil && other: else-branch contains every failure path.
			if guardFailureBranch(info, e.X, obj) == -1 || guardFailureBranch(info, e.Y, obj) == -1 {
				return -1
			}
			return 0
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && uses(id) {
				return 1 // !ok
			}
		}
	case *ast.Ident:
		if uses(e) {
			return -1 // ok: failure is the else branch
		}
	}
	return 0
}

// nilCompare extracts the identifier of an `x != nil` / `x == nil`
// comparison (either operand order).
func nilCompare(e *ast.BinaryExpr) (*ast.Ident, bool) {
	x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
	if isNilIdent(y) {
		id, _ := x.(*ast.Ident)
		return id, id != nil
	}
	if isNilIdent(x) {
		id, _ := y.(*ast.Ident)
		return id, id != nil
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
