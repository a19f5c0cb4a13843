package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives. A source line can opt out of one analyzer's
// findings with a written justification:
//
//	conn.Pack(buf, 7, core.ReceiveCheaper) //madvet:ignore modeflags -- mode 7 is a driver extension
//
// The directive suppresses that analyzer's diagnostics on its own line
// when it trails code, or on the following line when it stands alone:
//
//	//madvet:ignore blockhold -- verdict send is bounded: the control VC is express-only
//	v.sendVerdict(a, seg, prev, ok)
//
// A directive is itself checked: naming an analyzer the run does not
// know, omitting the `-- reason`, or suppressing nothing each produce a
// diagnostic (category "ignore"), so stale or undocumented opt-outs
// cannot accumulate silently.

const ignorePrefix = "//madvet:ignore"

// ignoreDirective is one parsed //madvet:ignore comment.
type ignoreDirective struct {
	pos      token.Pos
	analyzer string
	reason   string
	line     int  // line the directive applies to
	known    bool // analyzer is one of the run's analyzers
	used     bool // suppressed at least one diagnostic
}

// problem reports the directive's own diagnostic, if it has one.
// flagStale gates the unused-directive check: it is only sound when the
// run had full-strength (whole-tree) summaries, so RunUnit turns it off.
func (ig *ignoreDirective) problem(flagStale bool) (Diagnostic, bool) {
	d := Diagnostic{Pos: ig.pos, Category: "ignore"}
	switch {
	case ig.analyzer == "":
		d.Message = "malformed //madvet:ignore: want `//madvet:ignore <analyzer> -- <reason>`"
	case !ig.known:
		d.Message = "//madvet:ignore names unknown analyzer " + ig.analyzer
	case ig.reason == "":
		d.Message = "//madvet:ignore " + ig.analyzer + " without a reason: justify the suppression after ` -- `"
	case !ig.used && flagStale:
		d.Message = "//madvet:ignore " + ig.analyzer + " suppresses nothing: delete the stale directive"
	default:
		return Diagnostic{}, false
	}
	return d, true
}

// collectIgnores parses every //madvet:ignore directive in the package.
func collectIgnores(pkg *Package, analyzers []*Analyzer) []*ignoreDirective {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []*ignoreDirective
	for _, f := range pkg.Files {
		codeLines := codeLineSet(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				ig := parseIgnore(c)
				if ig == nil {
					continue
				}
				ig.known = known[ig.analyzer]
				line := pkg.Fset.Position(c.Pos()).Line
				if codeLines[line] {
					ig.line = line // trailing a statement: applies here
				} else {
					ig.line = line + 1 // standalone: applies to the next line
				}
				out = append(out, ig)
			}
		}
	}
	return out
}

// parseIgnore splits `//madvet:ignore <analyzer> -- <reason>`; nil for
// comments that merely share the prefix ("//madvet:ignorexyz").
func parseIgnore(c *ast.Comment) *ignoreDirective {
	rest := strings.TrimPrefix(c.Text, ignorePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil
	}
	ig := &ignoreDirective{pos: c.Pos()}
	name, reason, hasReason := strings.Cut(rest, "--")
	ig.analyzer = strings.TrimSpace(name)
	if hasReason {
		ig.reason = strings.TrimSpace(reason)
	}
	return ig
}

// suppress consumes the first directive matching the diagnostic.
// Directive diagnostics themselves (category "ignore") are never
// suppressible.
func suppress(ignores []*ignoreDirective, d Diagnostic, pos token.Position) bool {
	if d.Category == "ignore" {
		return false
	}
	for _, ig := range ignores {
		if ig.analyzer == d.Category && ig.known && ig.reason != "" && ig.line == pos.Line {
			ig.used = true
			return true
		}
	}
	return false
}

// codeLineSet marks every line holding a non-comment token of the file,
// so a directive can tell "trailing a statement" from "standalone line".
func codeLineSet(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.Ident, *ast.BasicLit:
			lines[fset.Position(n.Pos()).Line] = true
			return false
		}
		if n != nil {
			lines[fset.Position(n.Pos()).Line] = true
		}
		return true
	})
	return lines
}
