//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation allocates; the
// !race value lives in alloc_test.go.
const raceEnabled = true
