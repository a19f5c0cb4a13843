// Ownership summaries: the interprocedural layer of the driver.
//
// madvet's pairing analyzers (packpair, leaserelease, reqpair) are
// intraprocedural dataflows; historically any resource whose ownership
// escaped the function — returned, passed to a callee, stored into a
// struct — was simply exempted. Summaries close that gap: before any
// analyzer runs, the driver walks the call graph bottom-up and lets the
// suite's Summarizer record, per function, what the function does with
// ownership-shaped values (releases a parameter's obligation, hands an
// owned result to its caller, may block). Analyzers then consult the
// facts at call sites instead of exempting: a returned resource becomes
// the caller's obligation, a resource passed to a callee is settled (or
// not) by the callee's summary, and a resource stored into a type is
// owed a release by some method of that type.
//
// The vocabulary is deliberately generic — string obligation kinds, a
// per-parameter effect enum — so the driver stays free of madvet's
// domain shapes; the madvet package supplies the Summarizer that knows
// what "BeginPacking" means.
package analysis

import (
	"go/types"
)

// Obligation names a release discipline carried by a resource value:
// what must eventually happen to it ("end-packing", "deregister", …).
// The summarizer mints them; analyzers interpret them. The empty string
// means no obligation.
type Obligation string

// ParamEffect classifies what a function does with the obligation of a
// value received through one parameter.
type ParamEffect uint8

const (
	// ParamNone: the function only uses the value; the caller still owns
	// the obligation after the call.
	ParamNone ParamEffect = iota
	// ParamReleases: the function settles the obligation on every path
	// (a call is a release event in the caller's dataflow).
	ParamReleases
	// ParamEscapes: the function moves ownership somewhere the analysis
	// does not track (stores it, returns it, forwards it to an
	// unresolvable callee). The caller must stop tracking — claiming
	// either "still held" or "released" could be wrong.
	ParamEscapes
)

func (e ParamEffect) String() string {
	switch e {
	case ParamReleases:
		return "releases"
	case ParamEscapes:
		return "escapes"
	}
	return "none"
}

// Param is a function's summarized effect on one parameter. For methods
// index 0 is the receiver and declared parameters follow; for plain
// functions parameters start at 0.
type Param struct {
	Effect ParamEffect
	// Kind is the obligation settled when Effect is ParamReleases with
	// Subpath "" (the parameter itself is released).
	Kind Obligation
	// Subpaths maps selector paths under the parameter (".lease",
	// ".region") to the obligation the function settles on every path
	// through that subobject — the receiver-rooted release shape
	// (`func (lt *link) done() { lt.lease.Push(v) }`).
	Subpaths map[string]Obligation
}

// Summary is one function's interprocedural facts.
type Summary struct {
	// Params holds the per-parameter effects (receiver first for
	// methods); nil when the function takes nothing trackable.
	Params []Param
	// Results holds the obligation each result carries when the function
	// transfers ownership of a resource it acquired to its caller
	// ("" = plain value).
	Results []Obligation
	// MayBlock reports that the function can wait indefinitely: a
	// channel operation, a select without default, a lease acquisition,
	// a completion/condition wait — directly or through a callee.
	MayBlock bool
	// BlockWhy names the first blocking source found, for diagnostics
	// ("receives from a channel", "calls core.CQ.Wait", "calls x.y which
	// may block").
	BlockWhy string
	// DrainsCQ reports that the function observes completion-queue
	// completions on some path (CQ.Poll/Wait/OnCompletion, directly or
	// through a callee): calling it settles outstanding requests for the
	// reqpair discipline.
	DrainsCQ bool
}

// ParamAt returns the effect on parameter i (receiver = 0 for methods);
// the zero Param when unknown.
func (s *Summary) ParamAt(i int) Param {
	if s == nil || i < 0 || i >= len(s.Params) {
		return Param{}
	}
	return s.Params[i]
}

// Facts is the driver's store of per-function summaries, exposed to
// analyzers through Pass.Facts. A nil *Facts is valid and knows nothing
// (a run with no summarizing analyzer still works — every lookup answers
// "unknown").
type Facts struct {
	cg        *CallGraph
	summaries map[string]*Summary
}

// funcKey identifies a function across type-checker universes. The
// loader type-checks every root package in its own universe and imports
// dependencies bodiless, so the *types.Func a caller's package sees for
// an imported function is a different object than the one its defining
// (root) package declared — but both render the same full name
// ("pkg.F", "(*pkg.T).M"), which therefore keys the store.
func funcKey(fn *types.Func) string { return fn.FullName() }

// NewFacts returns an empty store over the call graph.
func NewFacts(cg *CallGraph) *Facts {
	return &Facts{cg: cg, summaries: make(map[string]*Summary)}
}

// CallGraph exposes the graph facts were computed over (nil on a nil
// store).
func (f *Facts) CallGraph() *CallGraph {
	if f == nil {
		return nil
	}
	return f.cg
}

// SetSummary records fn's summary (the summarizer's output).
func (f *Facts) SetSummary(fn *types.Func, s *Summary) {
	f.summaries[funcKey(fn)] = s
}

// Summary returns fn's summary, or nil when the function is unknown
// (no body loaded, not summarized, nil store).
func (f *Facts) Summary(fn *types.Func) *Summary {
	if f == nil || fn == nil {
		return nil
	}
	return f.summaries[funcKey(fn)]
}

// Summarizer computes per-function facts. The driver invokes it in
// bottom-up SCC order, so Summarize may read the facts of every callee
// outside fn's own SCC; in-SCC callees are still unsummarized (nil) and
// must be treated as unknown. Implementations are compared by interface
// identity to deduplicate a summarizer shared across analyzers, so use
// a pointer type.
type Summarizer interface {
	Summarize(fn *FuncInfo, facts *Facts)
}

// ComputeFacts builds the call graph over the packages and runs each
// distinct summarizer bottom-up.
func ComputeFacts(pkgs []*Package, summarizers []Summarizer) *Facts {
	cg := BuildCallGraph(pkgs)
	facts := NewFacts(cg)
	for _, scc := range cg.BottomUp() {
		for _, s := range summarizers {
			for _, fi := range scc {
				s.Summarize(fi, facts)
			}
		}
	}
	return facts
}
