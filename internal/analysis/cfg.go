package analysis

import (
	"go/ast"
)

// Graph is a statement-level control-flow graph of one function body.
// Nodes are statements (plus a synthetic Entry and Exit); edges are the
// possible successors. It is deliberately simple — no basic blocks, no
// expression-level ordering — which is enough for blockhold's forward walk
// from an acquisition to its release.
type Graph struct {
	Entry *Node
	Exit  *Node // every normal termination (return, fall off the end)
	Nodes []*Node
}

// Node is one statement in the graph. Stmt is nil for the synthetic
// Entry/Exit and for join points inserted after branching constructs.
type Node struct {
	Stmt  ast.Stmt
	Succs []*Node

	// Then/Else are set when Stmt is an *ast.IfStmt: the entries of the
	// two arms (Else is the post-if join when there is no else clause).
	Then, Else *Node
}

// Terminating reports whether a call never returns, cutting the edge to
// the following statement (panic, os.Exit, log.Fatal, t.Fatal, ...).
// BuildCFG's caller supplies it because classifying the callee needs type
// information the CFG itself does not hold; nil means only builtin panic
// terminates.
type Terminating func(call *ast.CallExpr) bool

type cfgBuilder struct {
	g          *Graph
	terminates Terminating
	// break/continue resolution stack; label is "" for the innermost
	// unlabeled target.
	loops  []loopCtx
	labels map[string]*labelCtx
	gotos  []pendingGoto
	// pendingLabel is adopted by the next pushed loop context (set by
	// labeledBody for `L: for ...` constructs).
	pendingLabel string
}

type loopCtx struct {
	label           string
	breakTo, contTo *Node
	isLoop          bool // continue is valid (for/range, not switch/select)
}

type labelCtx struct {
	node *Node // entry node of the labeled statement (goto target)
}

type pendingGoto struct {
	from  *Node
	label string
}

// BuildCFG constructs the graph of one function body.
func BuildCFG(body *ast.BlockStmt, terminates Terminating) *Graph {
	b := &cfgBuilder{
		g:          &Graph{},
		terminates: terminates,
		labels:     make(map[string]*labelCtx),
	}
	b.g.Entry = b.newNode(nil)
	b.g.Exit = &Node{}
	frontier := b.stmts(body.List, []*Node{b.g.Entry})
	b.connect(frontier, b.g.Exit)
	for _, pg := range b.gotos {
		if lc := b.labels[pg.label]; lc != nil {
			pg.from.Succs = append(pg.from.Succs, lc.node)
		}
	}
	b.g.Nodes = append(b.g.Nodes, b.g.Exit)
	return b.g
}

func (b *cfgBuilder) newNode(s ast.Stmt) *Node {
	n := &Node{Stmt: s}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *cfgBuilder) connect(from []*Node, to *Node) {
	for _, f := range from {
		f.Succs = append(f.Succs, to)
	}
}

// stmts threads the frontier (dangling predecessors) through a statement
// list and returns the new frontier.
func (b *cfgBuilder) stmts(list []ast.Stmt, frontier []*Node) []*Node {
	for _, s := range list {
		frontier = b.stmt(s, frontier)
	}
	return frontier
}

func (b *cfgBuilder) stmt(s ast.Stmt, frontier []*Node) []*Node {
	switch s := s.(type) {
	case *ast.BlockStmt:
		n := b.newNode(s)
		b.connect(frontier, n)
		return b.stmts(s.List, []*Node{n})

	case *ast.IfStmt:
		if s.Init != nil {
			frontier = b.stmt(s.Init, frontier)
		}
		cond := b.newNode(s)
		b.connect(frontier, cond)
		join := b.newNode(nil)
		thenEntry := b.newNode(nil)
		cond.Then = thenEntry
		b.connect(b.stmts(s.Body.List, []*Node{thenEntry}), join)
		if s.Else != nil {
			elseEntry := b.newNode(nil)
			cond.Else = elseEntry
			b.connect(b.stmt(s.Else, []*Node{elseEntry}), join)
		} else {
			cond.Else = join
		}
		cond.Succs = append(cond.Succs, cond.Then, cond.Else)
		return []*Node{join}

	case *ast.ForStmt:
		if s.Init != nil {
			frontier = b.stmt(s.Init, frontier)
		}
		head := b.newNode(s)
		b.connect(frontier, head)
		after := b.newNode(nil)
		cont := b.newNode(nil) // continue target: post statement, then head
		b.pushLoop(s, cont, after, true)
		bodyEnd := b.stmts(s.Body.List, []*Node{head})
		b.popLoop()
		b.connect(bodyEnd, cont)
		if s.Post != nil {
			b.connect(b.stmt(s.Post, []*Node{cont}), head)
		} else {
			cont.Succs = append(cont.Succs, head)
		}
		if s.Cond != nil { // conditional loop: may skip the body entirely
			head.Succs = append(head.Succs, after)
		}
		return []*Node{after}

	case *ast.RangeStmt:
		head := b.newNode(s)
		b.connect(frontier, head)
		after := b.newNode(nil)
		b.pushLoop(s, head, after, true)
		bodyEnd := b.stmts(s.Body.List, []*Node{head})
		b.popLoop()
		b.connect(bodyEnd, head)
		head.Succs = append(head.Succs, after)
		return []*Node{after}

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return b.switchLike(s, frontier)

	case *ast.LabeledStmt:
		n := b.newNode(s)
		b.connect(frontier, n)
		b.labels[s.Label.Name] = &labelCtx{node: n}
		// Record the label for break/continue on the labeled construct.
		return b.labeledBody(s.Label.Name, s.Stmt, []*Node{n})

	case *ast.ReturnStmt:
		n := b.newNode(s)
		b.connect(frontier, n)
		n.Succs = append(n.Succs, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		n := b.newNode(s)
		b.connect(frontier, n)
		switch s.Tok.String() {
		case "break":
			if t := b.findLoop(labelOf(s), false); t != nil {
				n.Succs = append(n.Succs, t.breakTo)
			}
		case "continue":
			if t := b.findLoop(labelOf(s), true); t != nil {
				n.Succs = append(n.Succs, t.contTo)
			}
		case "goto":
			b.gotos = append(b.gotos, pendingGoto{from: n, label: labelOf(s)})
		case "fallthrough":
			// handled by switchLike wiring; treated as fall to next case
			// via the node switchLike records (see below).
		}
		return nil

	default:
		// Simple statement: assign, expr, defer, go, send, decl, incdec...
		n := b.newNode(s)
		b.connect(frontier, n)
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && b.isTerminating(call) {
				return nil // no fallthrough edge: panic/os.Exit/...
			}
		}
		return []*Node{n}
	}
}

// labeledBody runs the labeled statement with the label visible to its
// break/continue stack entry.
func (b *cfgBuilder) labeledBody(label string, s ast.Stmt, frontier []*Node) []*Node {
	switch s.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Tag the next pushed loop context with the label by letting
		// stmt() push it, then renaming. Simpler: push a marker the
		// construct will adopt.
		b.pendingLabel = label
	}
	return b.stmt(s, frontier)
}

// switchLike wires switch/type-switch/select: head → every case entry,
// cases join after, fallthrough falls to the next case body.
func (b *cfgBuilder) switchLike(s ast.Stmt, frontier []*Node) []*Node {
	head := b.newNode(s)
	b.connect(frontier, head)
	after := b.newNode(nil)

	// A switch's init statement and a select case's comm statement are
	// folded into the head and the case entry: precise enough for a walk
	// that reads statement headers.
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}

	b.pushLoop(s, nil, after, false)

	// Build each case body, collecting entries so fallthrough can jump.
	entries := make([]*Node, len(clauses))
	for i := range clauses {
		entries[i] = b.newNode(nil)
	}
	for i, cl := range clauses {
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			body = cl.Body
			if cl.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			body = cl.Body
			if cl.Comm == nil {
				hasDefault = true
			}
		}
		head.Succs = append(head.Succs, entries[i])
		end := b.stmtsWithFallthrough(body, []*Node{entries[i]}, entries, i)
		b.connect(end, after)
	}
	b.popLoop()
	if len(clauses) == 0 || !hasDefault {
		// No default: the switch may match nothing (or, for select with
		// no default, block; the conservative edge keeps the walk sound).
		head.Succs = append(head.Succs, after)
	}
	return []*Node{after}
}

// stmtsWithFallthrough is stmts() plus wiring of a trailing fallthrough
// to the next case's entry.
func (b *cfgBuilder) stmtsWithFallthrough(list []ast.Stmt, frontier []*Node, entries []*Node, i int) []*Node {
	for _, s := range list {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
			n := b.newNode(s)
			b.connect(frontier, n)
			if i+1 < len(entries) {
				n.Succs = append(n.Succs, entries[i+1])
			}
			return nil
		}
		frontier = b.stmt(s, frontier)
	}
	return frontier
}

func (b *cfgBuilder) pushLoop(s ast.Stmt, contTo, breakTo *Node, isLoop bool) {
	b.loops = append(b.loops, loopCtx{
		label:   b.pendingLabel,
		breakTo: breakTo,
		contTo:  contTo,
		isLoop:  isLoop,
	})
	b.pendingLabel = ""
}

func (b *cfgBuilder) popLoop() { b.loops = b.loops[:len(b.loops)-1] }

// findLoop resolves a break/continue target; label "" = innermost
// eligible construct.
func (b *cfgBuilder) findLoop(label string, needLoop bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := &b.loops[i]
		if needLoop && !lc.isLoop {
			continue
		}
		if label == "" || lc.label == label {
			return lc
		}
	}
	return nil
}

func (b *cfgBuilder) isTerminating(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.terminates != nil && b.terminates(call)
}

func labelOf(s *ast.BranchStmt) string {
	if s.Label != nil {
		return s.Label.Name
	}
	return ""
}
