// May-block facts: the interprocedural layer of the driver.
//
// blockhold is an intraprocedural span walk, but whether a call inside a
// span can wait indefinitely is a property of the callee's whole call
// tree. Before any analyzer runs, the driver walks the call graph
// bottom-up and lets an analyzer's Summarize record that one fact per
// function; the analyzer then reads it back at call sites through
// Pass.Facts.
package analysis

import "go/types"

// Summary is one function's interprocedural facts.
type Summary struct {
	// MayBlock reports that the function can wait indefinitely: a
	// channel operation, a select without default, a lease acquisition,
	// a completion/condition wait — directly or through a callee.
	MayBlock bool
	// BlockWhy names the first blocking source found, for diagnostics
	// ("receives from a channel", "calls core.CQ.Wait", "calls x.y which
	// may block").
	BlockWhy string
}

// Facts is the driver's store of per-function summaries, exposed to
// analyzers through Pass.Facts. A nil *Facts is valid and knows nothing
// (a run with no summarizing analyzer still works — every lookup answers
// "unknown").
type Facts struct {
	summaries map[string]*Summary
}

// funcKey identifies a function across type-checker universes. The
// loader type-checks every root package in its own universe and imports
// dependencies bodiless, so the *types.Func a caller's package sees for
// an imported function is a different object than the one its defining
// (root) package declared — but both render the same full name
// ("pkg.F", "(*pkg.T).M"), which therefore keys the store.
func funcKey(fn *types.Func) string { return fn.FullName() }

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

// computeFacts runs each summarizing analyzer over the packages' call
// graph in bottom-up SCC order, so a Summarize may read the facts of
// every callee outside fn's own SCC; in-SCC callees are still
// unsummarized (nil) and must be treated as unknown. Each analyzer gets
// its own store; one that does not summarize has none.
func computeFacts(pkgs []*Package, analyzers []*Analyzer) map[*Analyzer]*Facts {
	var sccs [][]*FuncInfo
	facts := make(map[*Analyzer]*Facts)
	for _, a := range analyzers {
		if a.Summarize == nil {
			continue
		}
		if sccs == nil {
			sccs = BuildCallGraph(pkgs).BottomUp()
		}
		f := &Facts{summaries: make(map[string]*Summary)}
		for _, scc := range sccs {
			for _, fi := range scc {
				a.Summarize(fi, f)
			}
		}
		facts[a] = f
	}
	return facts
}
