// Fixtures for the obsnames analyzer: metric names minted at the
// Registry chokepoints must follow the layer/subsystem[/name] convention.
package obsnames

import (
	"strings"

	"metrics"
)

// good names pass: 2-4 lowercase components, [a-z0-9_.#-] bodies.
func good(reg *metrics.Registry) {
	_ = reg.Counter("fault/dropped")
	_ = reg.Gauge("async/occupancy-max")
	_ = reg.Histogram("chan/main/latency.p99")
	_ = reg.Counter("a/b/c/d") // four components: still legal
}

// dynamic names are out of the analyzer's reach; they must be built from
// Clean-sanitized components instead.
func dynamic(reg *metrics.Registry, user string) {
	_ = reg.Counter("chan/" + metrics.Clean(user) + "/bytes-out")
}

// constant folding still resolves to a checkable name.
const prefix = "fwd/rel"

func folded(reg *metrics.Registry) {
	_ = reg.Counter(prefix + "/nack")
	_ = reg.Counter(prefix)
}

func bad(reg *metrics.Registry) {
	_ = reg.Counter("packets")           // want `has 1 components`
	_ = reg.Gauge("Fwd/Rel")             // want `must match`
	_ = reg.Histogram("bip 0/tx")        // want `must match`
	_ = reg.Counter("fwd//dropped")      // want `must match`
	_ = reg.Gauge("a/b/c/d/e")           // want `has 5 components`
	_ = reg.Histogram("-lead/subsystem") // want `must match`
}

// unrelated Count methods (strings.Count, local types) stay silent.
type other struct{}

func (other) Count(name string, delta int64) {}

func unrelated(x other) {
	_ = strings.Count("no/convention/here", "/")
	x.Count("WHATEVER GOES", 1)
}
