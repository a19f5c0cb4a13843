// Package madvet holds the project's custom analyzer: a machine-checked
// version of a contract the library's correctness rests on but neither
// the compiler nor a run-time check can see (DESIGN.md "Static analysis &
// invariants").
//
//	blockhold    no indefinite blocking while a lease or mutex is held
//
// What a type, an API shape or a run-time check can hold is not here:
// metric names are checked by the registry that creates them, a TM has one
// identity because no library type wraps one, every in-tree message is a
// core Channel.Send/Channel.Recv scope, which ends it on every path
// (Session.CheckQuiescent reports a Table-1 caller's missing End… at run
// time), Pack and Unpack reject a mode outside Table 1 (core.ModeError),
// and the import ban that keeps the wall clock and math/rand out is a
// parser test at the repository root.
//
// blockhold matches the library's shapes structurally (a method named
// acquire on a type that also has release, sync mutexes, core completion
// waits), so its fixtures model them with small stub packages. It reads
// across calls: its may-block facts (mayblock.go) are computed bottom-up
// over the call graph before it runs.
package madvet

import "madeleine2/internal/analysis"

// Analyzers is the suite cmd/madvet runs.
var Analyzers = []*analysis.Analyzer{BlockHold}
