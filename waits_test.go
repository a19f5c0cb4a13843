package madeleine2_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// condFiles are the only library files that may wait on a sync.Cond:
// simnet.Queue, the one FIFO hand-off, and the async engine's CQ and
// worker pool.
var condFiles = map[string]bool{
	"internal/simnet/queue.go": true,
	"internal/core/async.go":   true,
}

// TestWaitSites keeps every wait in the library visible in a few places,
// read with go/parser alone. In non-test Go under internal/ (the analyzer
// and the figure harness excepted) a goroutine parks on a simnet.Queue, on
// the CQ's or the engine's cond, or in a sync.WaitGroup join: no other
// file names sync.Cond, and no file has a channel type, a send, a receive,
// a select or a channel close.
func TestWaitSites(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		if d.IsDir() {
			if slash == "internal/analysis" || slash == "internal/bench" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		syncName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" {
				syncName = "sync"
				if imp.Name != nil {
					syncName = imp.Name.Name
				}
			}
		}
		report := func(n ast.Node, what string) {
			t.Errorf("%s: %s: wait on a simnet.Queue instead", fset.Position(n.Pos()), what)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ChanType:
				report(n, "channel type")
			case *ast.SendStmt:
				report(n, "channel send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n, "channel receive")
				}
			case *ast.SelectStmt:
				report(n, "select")
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
					report(n, "channel close")
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && syncName != "" && x.Name == syncName &&
					(n.Sel.Name == "Cond" || n.Sel.Name == "NewCond") && !condFiles[slash] {
					report(n, "sync."+n.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
