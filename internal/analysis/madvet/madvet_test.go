package madvet_test

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"madeleine2/internal/analysis"
	"madeleine2/internal/analysis/madvet"
)

// TestBlockHold runs blockhold over the GOPATH-style fixture package
// testdata/src/blockhold and checks its diagnostics against the fixture's
// `// want "regexp"` comments, each of which applies to its own line:
// every diagnostic must match an unconsumed expectation on its line, and
// every expectation must be consumed.
func TestBlockHold(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader("", "")
	loader.GOPATH = testdata
	pkgs, err := loader.Load("blockhold")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{madvet.BlockHold})
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	type expectation struct {
		re       *regexp.Regexp
		consumed bool
	}
	wants := make(map[key][]*expectation)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					for _, re := range parseWant(t, c.Text) {
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &expectation{re: re})
					}
				}
			}
		}
	}
	for _, d := range diags {
		pos := d.Position(loader.Fset)
		matched := false
		for _, exp := range wants[key{pos.Filename, pos.Line}] {
			if !exp.consumed && exp.re.MatchString(d.Message) {
				exp.consumed, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", pos, d.Category, d.Message)
		}
	}
	for k, exps := range wants {
		for _, exp := range exps {
			if !exp.consumed {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, exp.re)
			}
		}
	}
}

// parseWant extracts the regexps of a `// want "re" ...` comment; nil for
// any other comment.
func parseWant(t *testing.T, text string) []*regexp.Regexp {
	t.Helper()
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want ")
	if !ok {
		return nil
	}
	var out []*regexp.Regexp
	for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
		lit, err := strconv.QuotedPrefix(rest)
		if err != nil {
			t.Fatalf("malformed want comment (expected a quoted regexp): %s", text)
		}
		rest = rest[len(lit):]
		s, _ := strconv.Unquote(lit)
		re, err := regexp.Compile(s)
		if err != nil {
			t.Fatalf("bad regexp in want comment %q: %v", s, err)
		}
		out = append(out, re)
	}
	if len(out) == 0 {
		t.Fatalf("want comment with no regexps: %s", text)
	}
	return out
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
