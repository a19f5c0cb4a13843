// Package analysistest runs an analyzer over GOPATH-style fixture
// packages (testdata/src/<pkg>/...) and checks its diagnostics against
// `// want "regexp"` comments in the fixture sources, in the manner of
// golang.org/x/tools/go/analysis/analysistest.
//
// A want comment holds one or more quoted regular expressions and
// applies to the line it appears on:
//
//	conn.Pack(buf, 7, core.ReceiveCheaper) // want `out of range`
//
// The block form `/* want "re" */` is equivalent, for lines whose line
// comment is spoken for — testing a //madvet:ignore directive's own
// diagnostics requires the want before the directive:
//
//	/* want "names unknown analyzer" */ //madvet:ignore nosuchcheck -- ...
//
// Every diagnostic must match an unconsumed expectation on its line, and
// every expectation must be consumed; anything else fails the test.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"madeleine2/internal/analysis"
)

// Run loads the fixture packages rooted at testdata (their import paths
// resolve against testdata/src) and applies the analyzer to each.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	loader := analysis.NewLoader("", "")
	loader.GOPATH = testdata
	pkgs, err := loader.Load(paths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
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
					res, ok := parseWant(t, c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					for _, re := range res {
						wants[k] = append(wants[k], &expectation{re: re})
					}
				}
			}
		}
	}

	fset := loader.Fset
	for _, d := range diags {
		pos := d.Position(fset)
		k := key{pos.Filename, pos.Line}
		matched := false
		for _, exp := range wants[k] {
			if !exp.consumed && exp.re.MatchString(d.Message) {
				exp.consumed = true
				matched = true
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

// parseWant extracts the regexps of a `// want "re" ...` (or
// `/* want "re" */`) comment.
func parseWant(t *testing.T, text string) ([]*regexp.Regexp, bool) {
	t.Helper()
	if inner, ok := strings.CutPrefix(text, "/*"); ok {
		text = strings.TrimSuffix(inner, "*/")
	} else {
		text = strings.TrimPrefix(text, "//")
	}
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), "want ")
	if !ok {
		return nil, false
	}
	var out []*regexp.Regexp
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		q := rest[0]
		if q != '"' && q != '`' {
			t.Fatalf("malformed want comment (expected quoted regexp): %s", text)
		}
		end := strings.IndexByte(rest[1:], q)
		if end < 0 {
			t.Fatalf("malformed want comment (unterminated quote): %s", text)
		}
		lit := rest[:end+2]
		rest = rest[end+2:]
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("malformed want comment %q: %v", lit, err)
		}
		re, err := regexp.Compile(s)
		if err != nil {
			t.Fatalf("bad regexp in want comment %q: %v", s, err)
		}
		out = append(out, re)
	}
	if len(out) == 0 {
		t.Fatalf("want comment with no regexps: %s", text)
	}
	return out, true
}
