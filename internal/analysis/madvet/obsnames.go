package madvet

import (
	"go/ast"
	"go/constant"
	"go/types"

	"madeleine2/internal/analysis"
	"madeleine2/internal/metrics"
)

// ObsNames enforces the metrics plane's naming convention at every
// chokepoint that mints a metric: Registry.Counter/Gauge/Histogram.
// Names are the registry's only schema — exposition, snapshots, madtop
// and madperf all key on them — so an ad-hoc name ("packets", "Fwd/Rel")
// silently forks the namespace. Only constant names are checked; dynamic
// names must be built from components sanitized through metrics.Clean. Names a collector emits (chan/*,
// async/*, fault/*, fwd/*) pass through a func value, not a method, and
// are checked by their packages' tests against metrics.CheckName.
var ObsNames = &analysis.Analyzer{
	Name: "obsnames",
	Doc: "reject metric names that bypass the layer/subsystem/name convention\n" +
		"at the Registry chokepoints (metrics.CheckName)",
	Run: runObsNames,
}

// obsNameSinks maps (package name, receiver type, method) triples to true
// for every call whose first argument mints a metric name. Matching is
// structural, like the rest of the suite, so fixtures can model the API
// with stubs.
var obsNameSinks = map[[3]string]bool{
	{"metrics", "Registry", "Counter"}:   true,
	{"metrics", "Registry", "Gauge"}:     true,
	{"metrics", "Registry", "Histogram"}: true,
}

func runObsNames(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if !isObsNameSink(info, call) {
				return true
			}
			tv, okType := info.Types[call.Args[0]]
			if !okType || tv.Value == nil || tv.Value.Kind() != constant.String {
				// Dynamic name: unverifiable here; the convention is that
				// such names route variable parts through metrics.Clean.
				return true
			}
			name := constant.StringVal(tv.Value)
			if err := metrics.CheckName(name); err != nil {
				pass.Reportf(call.Args[0].Pos(), "%v", err)
			}
			return true
		})
	}
	return nil
}

// isObsNameSink reports whether the call is one of the name-minting
// methods, matched by package name, receiver type name and method name.
func isObsNameSink(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	obj := selection.Obj()
	if obj.Pkg() == nil {
		return false
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	return obsNameSinks[[3]string{obj.Pkg().Name(), named.Obj().Name(), obj.Name()}]
}
