package madvet

import (
	"strconv"
	"strings"

	"madeleine2/internal/analysis"
)

// VirtualTime keeps the wall clock and the global random source out by
// import. Every duration in the library is virtual time threaded through
// vclock actors and every fault plan draws from its own seed, which is
// what makes a run's timeline reproducible; a package that cannot import
// time or math/rand cannot couple a result to host scheduling. Analyzers
// see non-test files only, so tests keep both.
var VirtualTime = &analysis.Analyzer{
	Name: "virtualtime",
	Doc: "forbid importing time in internal/ packages and math/rand anywhere (tests exempt):\n" +
		"virtual time flows through vclock, randomness from explicit seeds",
	Run: func(pass *analysis.Pass) error {
		library := strings.Contains("/"+pass.Pkg.Path(), "/internal/")
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				switch path, _ := strconv.Unquote(imp.Path.Value); {
				case path == "time" && library:
					pass.Reportf(imp.Pos(), "library package %s imports time: virtual time must flow through vclock", pass.Pkg.Path())
				case path == "math/rand" || path == "math/rand/v2":
					pass.Reportf(imp.Pos(), "%s imported outside tests: draw from an explicit seed so runs repeat", path)
				}
			}
		}
		return nil
	},
}
