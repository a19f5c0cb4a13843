package madvet_test

import (
	"path/filepath"
	"testing"

	"madeleine2/internal/analysis"
	"madeleine2/internal/analysis/analysistest"
	"madeleine2/internal/analysis/madvet"
)

func testdata(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestModeFlags(t *testing.T) {
	analysistest.Run(t, testdata(t), madvet.ModeFlags, "modeflags")
}

// TestIgnoreDirective checks //madvet:ignore end to end under a real
// analyzer: trailing and standalone suppression, and the directive's own
// diagnostics (unknown analyzer, missing reason, stale, malformed).
func TestIgnoreDirective(t *testing.T) {
	analysistest.Run(t, testdata(t), madvet.ModeFlags, "ignore")
}

func TestBlockHold(t *testing.T) {
	analysistest.Run(t, testdata(t), madvet.BlockHold, "blockhold")
}

func TestVirtualTime(t *testing.T) {
	analysistest.Run(t, testdata(t), madvet.VirtualTime, "internal/virtualtime")
}

// TestRepositoryIsClean is the suite's own gate: the real tree must pass
// every analyzer. A regression introduced anywhere in the module fails
// here before CI even reaches the lint job.
func TestRepositoryIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader("madeleine2", root)
	paths, err := loader.ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(paths...)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, madvet.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", d.Position(loader.Fset), d.Category, d.Message)
	}
}
