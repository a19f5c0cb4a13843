package madeleine2_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestVirtualTimeImports is an import ban, read with go/parser alone: no
// non-test file under internal/ imports time, and no non-test file
// anywhere in the tree (benchmark/ included; testdata, hidden and
// underscore directories skipped, as the go tool skips them) imports
// math/rand or math/rand/v2. Every duration in the library is
// virtual time threaded through vclock actors and every fault plan draws
// from its own seed, which is what makes a run's timeline reproducible; a
// package that cannot import time or math/rand cannot couple a result to
// host scheduling. Tests keep both.
func TestVirtualTimeImports(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		library := strings.Contains("/"+filepath.ToSlash(filepath.Dir(path))+"/", "/internal/")
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); {
			case p == "time" && library:
				t.Errorf("%s: library file imports time: virtual time must flow through vclock", fset.Position(imp.Pos()))
			case p == "math/rand" || p == "math/rand/v2":
				t.Errorf("%s: %s imported outside tests: draw from an explicit seed so runs repeat", fset.Position(imp.Pos()), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
