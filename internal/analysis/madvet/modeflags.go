package madvet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"madeleine2/internal/analysis"
)

// ModeFlags checks mode-flag usage at Pack/Unpack call sites against the
// paper's Table 1 semantics, catching combinations the type system cannot:
//
//   - constant send modes outside {send_CHEAPER, send_SAFER, send_LATER}
//     and receive modes outside {receive_CHEAPER, receive_EXPRESS}
//     (usually a receive constant force-converted into the send argument
//     or vice versa);
//   - a send_LATER block written after Pack in a function that never
//     commits the message (EndPacking flushes LATER blocks; without it
//     the write may or may not reach the wire). A function literal's
//     connection parameter is exempt: a Channel.Send scope commits it;
//   - a receive_EXPRESS extraction after a receive_CHEAPER one in the
//     same message body: the express guarantee then forces completion of
//     every deferred block, defeating the pipelining the cheaper blocks
//     asked for (§2.2: steering data leads the message).
var ModeFlags = &analysis.Analyzer{
	Name: "modeflags",
	Doc: "check statically invalid Pack/Unpack mode-flag combinations per the\n" +
		"paper's Table 1 (send modes 0..2, receive modes 0..1, LATER commits, EXPRESS ordering)",
	Run: runModeFlags,
}

const (
	sendModeMax = 2 // send_CHEAPER, send_SAFER, send_LATER
	recvModeMax = 1 // receive_CHEAPER, receive_EXPRESS
	sendLater   = 2
	recvExpress = 1
	recvCheaper = 0
)

func runModeFlags(pass *analysis.Pass) error {
	info := pass.TypesInfo
	funcBodies(pass.Files, func(lit *ast.FuncLit, body *ast.BlockStmt) {
		checkModeSequences(pass, lit, body)
	})
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			_, name, ok := isCoreMethod(info, call, "Pack", "Unpack")
			if !ok || len(call.Args) != 3 {
				return true
			}
			sm, rm := call.Args[1], call.Args[2]
			checkModeArg(pass, sm, name, "send", sendModeMax, "RecvMode")
			checkModeArg(pass, rm, name, "receive", recvModeMax, "SendMode")
			return true
		})
	}
	return nil
}

// checkModeArg validates one mode argument: constant range and
// cross-mode conversions (the other mode's named type forced in).
func checkModeArg(pass *analysis.Pass, arg ast.Expr, method, which string, max int64, otherType string) {
	info := pass.TypesInfo
	// Explicit conversion wrapping the other mode type: SendMode(rm).
	if conv, ok := ast.Unparen(arg).(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, ok := info.Types[conv.Fun]; ok && tv.IsType() {
			if named := namedTypeOf(info.Types[conv.Args[0]].Type); named == otherType {
				pass.Reportf(arg.Pos(), "%s: %s-mode argument converts a %s constant: send and receive flags are not interchangeable (Table 1)",
					method, which, otherType)
				return
			}
		}
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil {
		return // not a constant: dynamic modes are checked at run time
	}
	if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && (v < 0 || v > max) {
		pass.Reportf(arg.Pos(), "%s: constant %s mode %d is out of range 0..%d (Table 1)", method, which, v, max)
	}
}

// namedTypeOf returns the name of a (possibly pointer-free) named type.
func namedTypeOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// modeCall is one Pack/Unpack in source order within a function body.
type modeCall struct {
	call   *ast.CallExpr
	method string
	conn   types.Object
	sm, rm int64 // constant values, -1 when not constant
}

// checkModeSequences runs the per-function, per-connection ordering
// checks: LATER-without-commit and EXPRESS-after-CHEAPER. lit is the
// literal whose body it is, nil for a declaration.
func checkModeSequences(pass *analysis.Pass, lit *ast.FuncLit, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var calls []modeCall
	ends := map[types.Object]bool{} // conns with an End… in this body
	if lit != nil {
		// A literal's connection parameter is a scope's message (core
		// Channel.Send): the scope's owner ends it, not this body.
		for _, f := range lit.Type.Params.List {
			for _, id := range f.Names {
				ends[info.Defs[id]] = true
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate scope: funcBodies visits it on its own
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := isCoreMethod(info, call, "Pack", "Unpack", "EndPacking", "EndUnpacking")
		if !ok {
			return true
		}
		conn := recvRootObj(info, recv)
		switch name {
		case "EndPacking", "EndUnpacking":
			ends[conn] = true
			calls = append(calls, modeCall{call: call, method: name, conn: conn})
		case "Pack", "Unpack":
			if len(call.Args) != 3 {
				return true
			}
			calls = append(calls, modeCall{
				call:   call,
				method: name,
				conn:   conn,
				sm:     constVal(info, call.Args[1]),
				rm:     constVal(info, call.Args[2]),
			})
		}
		return true
	})

	// send_LATER written after Pack without a commit in this function.
	for _, c := range calls {
		if c.method != "Pack" || c.sm != sendLater || c.conn == nil || ends[c.conn] {
			continue
		}
		bufObj := recvRootObj(info, c.call.Args[0]) // root of the buffer expression
		if bufObj == nil {
			continue
		}
		if pos := writeAfter(info, body, c.call.End(), bufObj); pos != nil {
			pass.Reportf(pos.Pos(), "send_LATER buffer written after Pack but the function never commits (EndPacking): the write may not reach the wire")
		}
	}

	// receive_EXPRESS after receive_CHEAPER on the same connection.
	lastCheaper := map[types.Object]*ast.CallExpr{}
	for _, c := range calls {
		if c.conn == nil {
			continue
		}
		switch c.method {
		case "EndPacking", "EndUnpacking":
			delete(lastCheaper, c.conn) // message boundary resets the order
		case "Unpack":
			switch c.rm {
			case recvCheaper:
				lastCheaper[c.conn] = c.call
			case recvExpress:
				if lastCheaper[c.conn] != nil {
					pass.Reportf(c.call.Pos(), "receive_EXPRESS block extracted after a receive_CHEAPER block in the same message: express data must lead the message (§2.2)")
				}
			}
		}
	}
}

// constVal evaluates an integer constant expression, or -1.
func constVal(info *types.Info, e ast.Expr) int64 {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return -1
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		return -1
	}
	return v
}

// writeAfter finds the first statement after end that writes through the
// object: assignment to it or an element, or copy/append with it as the
// destination.
func writeAfter(info *types.Info, body *ast.BlockStmt, end token.Pos, obj types.Object) ast.Node {
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Pos() <= end {
				return true
			}
			for _, lhs := range n.Lhs {
				if recvRootObj(info, lhs) == obj {
					found = n
					return false
				}
			}
		case *ast.CallExpr:
			if n.Pos() <= end {
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
				if recvRootObj(info, n.Args[0]) == obj {
					found = n
					return false
				}
			}
		}
		return true
	})
	return found
}
