// Package core stubs the one Madeleine core shape the blockhold fixtures
// need: blockhold matches completion waits structurally (a Wait method of
// a package named "core"), so the fixtures type-check against this stub
// without importing the real module.
package core

type Completion struct{ Err error }

type CQ struct{}

func (cq *CQ) Wait() (Completion, bool) { return Completion{}, false }
