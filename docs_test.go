package madeleine2_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code references must resolve.
var docFiles = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

// goIndex is what the sources declare, read with go/parser alone.
type goIndex struct {
	// decls maps a package name of this module to its top-level names.
	decls map[string]map[string]bool
	// members maps "pkg.Type" to its methods, fields and interface methods.
	members map[string]map[string]bool
	// tests holds every Test*/Benchmark*/Fuzz* function, benchmark/ included.
	tests map[string]bool
	// base holds the base name of every file in the tree.
	base map[string]bool
}

func indexTree(t *testing.T) *goIndex {
	t.Helper()
	idx := &goIndex{
		decls:   map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		tests:   map[string]bool{},
		base:    map[string]bool{},
	}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == ".git" || n == ".bench_build" || n == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		idx.base[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		// benchmark/ is a module of its own: its tests can be named, its
		// packages are not packages of this module.
		own := !strings.HasPrefix(filepath.ToSlash(path), "benchmark/")
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if isTest && decl.Recv == nil && testName.MatchString(name) {
					idx.tests[name] = true
				}
				if !own {
					continue
				}
				if decl.Recv == nil {
					add(idx.decls, pkg, name)
				} else if recv := recvTypeName(decl.Recv.List[0].Type); recv != "" {
					add(idx.members, pkg+"."+recv, name)
				}
			case *ast.GenDecl:
				if !own {
					continue
				}
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(idx.decls, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(idx.decls, pkg, spec.Name.Name)
						var fields *ast.FieldList
						switch t := spec.Type.(type) {
						case *ast.StructType:
							fields = t.Fields
						case *ast.InterfaceType:
							fields = t.Methods
						}
						if fields == nil {
							continue
						}
						for _, fld := range fields.List {
							for _, n := range fld.Names {
								add(idx.members, pkg+"."+spec.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr: // generic receiver T[E]
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

var (
	testName = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9_]\w*$`)
	// testRef finds a test-like name anywhere in a document, with the `*`
	// that marks it as a prefix ("TestAsync*").
	testRef = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	// goRef finds pkg.Ident or pkg.Ident.Member; the caller checks that pkg
	// is a package of the module and that nothing path-like precedes it.
	goRef = regexp.MustCompile(`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	// runFlag marks a command whose test names are regexp fragments.
	runFlag  = regexp.MustCompile(`-(run|bench|fuzz)\b`)
	pathWord = regexp.MustCompile(`^[\w.*?\[\]{},/-]+$`)
)

// codeSpans returns the inline code spans and fenced blocks of a markdown
// document, whitespace-normalised.
func codeSpans(doc string) []string {
	var out []string
	parts := strings.Split(doc, "```")
	for i, p := range parts {
		if i%2 == 1 {
			// Fenced block: every line is a span (drop the info string).
			lines := strings.Split(p, "\n")
			for _, l := range lines[1:] {
				if l = strings.TrimSpace(l); l != "" {
					out = append(out, l)
				}
			}
			continue
		}
		for j, s := range strings.Split(p, "`") {
			if j%2 == 1 {
				out = append(out, strings.Join(strings.Fields(s), " "))
			}
		}
	}
	return out
}

// TestDocReferencesResolve keeps the prose honest: in DESIGN.md, README.md
// and the verify skill, every repo path written in a code span (globs
// allowed), every Test*/Benchmark*/Fuzz* name, and every pkg.Ident or
// pkg.Ident.Member whose pkg is a package of this module must exist in the
// tree. There is no allow-list: a reference to something deleted is
// rewritten or removed with it.
func TestDocReferencesResolve(t *testing.T) {
	idx := indexTree(t)
	top := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		top[e.Name()] = true
	}
	hasPrefix := func(set map[string]bool, prefix string) bool {
		for name := range set {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}

	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		spans := codeSpans(text)

		// Test names, wherever they appear. One written with a trailing *
		// or inside a -run/-bench/-fuzz command is a prefix.
		prefixOK := map[string]bool{}
		for _, span := range spans {
			if runFlag.MatchString(span) {
				for _, name := range testRef.FindAllString(span, -1) {
					prefixOK[strings.TrimSuffix(name, "*")] = true
				}
			}
		}
		seen := map[string]bool{}
		for _, ref := range testRef.FindAllString(text, -1) {
			name := strings.TrimSuffix(ref, "*")
			if seen[ref] {
				continue
			}
			seen[ref] = true
			if idx.tests[name] {
				continue
			}
			if (name != ref || prefixOK[name]) && hasPrefix(idx.tests, name) {
				continue
			}
			t.Errorf("%s: no test function %s in the tree", doc, ref)
		}

		for _, span := range spans {
			for _, word := range strings.Fields(span) {
				word = strings.Trim(word, `'",;:()`)
				if isPath(word, top) {
					if !pathResolves(word, idx) {
						t.Errorf("%s: path `%s` matches nothing in the tree", doc, word)
					}
					continue
				}
				for _, m := range goRef.FindAllStringSubmatchIndex(word, -1) {
					if m[0] > 0 && strings.ContainsRune("./\\", rune(word[m[0]-1])) {
						continue // the tail of a longer chain or of a path
					}
					pkg, ident := word[m[2]:m[3]], word[m[4]:m[5]]
					decls, ok := idx.decls[pkg]
					if !ok || seen[word[m[0]:m[1]]] {
						continue
					}
					seen[word[m[0]:m[1]]] = true
					if !decls[ident] {
						t.Errorf("%s: `%s`: package %s declares no %s", doc, word, pkg, ident)
						continue
					}
					if m[6] >= 0 {
						member := word[m[6]:m[7]]
						if !idx.members[pkg+"."+ident][member] {
							t.Errorf("%s: `%s`: %s.%s has no method or field %s", doc, word, pkg, ident, member)
						}
					}
				}
			}
		}
	}
}

// isPath reports whether a word of a code span names something in the
// repository: it is spelled like a path and either starts at a top-level
// entry of the repo or is a Go file. (What a command writes — t.json —
// and what a server serves — /metrics.json — are neither.)
func isPath(word string, top map[string]bool) bool {
	if !pathWord.MatchString(word) {
		return false
	}
	w := strings.TrimPrefix(word, "./")
	first, _, _ := strings.Cut(w, "/")
	return top[first] || strings.HasSuffix(w, ".go")
}

// pathResolves matches the word as a glob from the repo root; a Go package
// pattern's trailing /... and a directory's trailing / are dropped, and a
// bare file name may live anywhere in the tree.
func pathResolves(word string, idx *goIndex) bool {
	w := strings.TrimPrefix(word, "./")
	w = strings.TrimSuffix(w, "/...")
	w = strings.TrimSuffix(w, "/")
	if !strings.Contains(w, "/") && idx.base[w] {
		return true
	}
	matches, err := filepath.Glob(w)
	return err == nil && len(matches) > 0
}
