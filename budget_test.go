package madeleine2_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lineCeiling is the most non-test Go the tree may hold. A change that
// deletes lines lowers it to the new count; one that adds lines stays
// under it, or raises it in a change whose notes say why.
const lineCeiling = 20718

// TestLineBudget counts the lines of non-test Go in the tree: every .go
// file except _test.go files, walking from the module root and skipping
// testdata, benchmark (a module of its own) and every directory whose name
// starts with a dot (.bench_build holds a Go module cache). The count must
// not exceed lineCeiling.
func TestLineBudget(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || path == "benchmark" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(b, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case lines > lineCeiling:
		t.Errorf("%d lines of non-test Go, over the ceiling of %d: delete some, or raise lineCeiling and say why", lines, lineCeiling)
	case lines < lineCeiling:
		t.Logf("%d lines of non-test Go, %d under the ceiling: lower lineCeiling to %d", lines, lineCeiling-lines, lines)
	}
}
