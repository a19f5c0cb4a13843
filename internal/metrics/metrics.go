// Package metrics is the library's always-on metrics plane: a registry of
// named counters, high-water-mark gauges and latency histograms that every
// layer — the session observer, channel accounting, the simnet fault
// injector, the forwarding reliability protocol and the async progress
// engine — publishes into. One registry belongs to one core.Session; the
// exposition side (Snapshot, Prometheus/JSON rendering, the HTTP endpoint
// behind madeleine2.ServeMetrics, and the cmd/madtop viewer) reads from it
// without stopping traffic.
//
// Names follow the layer/subsystem[/name] convention: 2–4 slash-separated
// lowercase components ("fwd/rel/retransmit", "async/runq-max",
// "fault/dropped"). CheckName is the machine-checked form of the
// convention, and the registry applies it to every name it creates a
// handle for, so ad-hoc names cannot enter its namespace.
//
// The hot path is lock-free: callers resolve a *Counter/*Gauge once and
// bump it with a single atomic op. Registry lookups take a read lock and
// are meant for resolve-and-cache use, not per-event use. A nil *Registry
// (and nil *Counter/*Gauge) is a valid no-op sink, mirroring the trace
// package's nil-recorder convention.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"madeleine2/internal/trace"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Add bumps the counter; nil-safe.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Load reads the current count; nil-safe.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value. SetMax turns it into a high-water mark
// (the progress engine's run-queue depth and CQ backlog use it).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge's current value; nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta; nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v is larger — a lock-free high-water
// mark; nil-safe.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load reads the gauge; nil-safe.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Collector is a pull-source of counter-valued metrics: called at
// Snapshot time with an emit function. Layers whose counters already live
// elsewhere (channel accounting, adapter fault stats) register a collector
// instead of double-counting on their hot paths; emissions with the same
// name accumulate, so per-rank collectors sum into cluster-wide totals.
type Collector func(emit func(name string, v int64))

// Registry holds one session's metrics.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*trace.Histogram
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*trace.Histogram),
	}
}

// lookup returns m[name], creating it with mk on first use. A name's first
// use is where it enters the schema, so that is where it is checked: one
// that fails CheckName panics, whether a constant or built at run time.
// Repeat lookups take the read lock and check nothing.
func lookup[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	if err := CheckName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Counter returns (creating on first use) the named counter. Resolve once
// and cache the pointer on hot paths. Nil-safe: a nil registry yields a
// nil counter, itself a valid no-op sink.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, func() *Counter { return new(Counter) })
}

// Gauge returns (creating on first use) the named gauge; nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, func() *Gauge { return new(Gauge) })
}

// Histogram returns (creating on first use) the named latency histogram;
// nil-safe (a nil *trace.Histogram is a no-op sink).
func (r *Registry) Histogram(name string) *trace.Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, name, trace.NewHistogram)
}

// RegisterCollector adds a pull-source consulted at every Snapshot;
// nil-safe.
func (r *Registry) RegisterCollector(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// CheckName validates a metric name against the layer/subsystem[/name]
// convention: 2 to 4 slash-separated components, each starting with a
// lowercase letter or digit and continuing with lowercase letters, digits
// or one of "_.#-". Names a collector emits are the one kind the registry
// does not check itself; their packages' tests do.
func CheckName(name string) error {
	parts := strings.Split(name, "/")
	if len(parts) < 2 || len(parts) > 4 {
		return fmt.Errorf("metrics: name %q has %d components, want 2-4 (layer/subsystem[/name])", name, len(parts))
	}
	for _, p := range parts {
		if !validComponent(p) {
			return fmt.Errorf("metrics: name %q: component %q must match [a-z0-9][a-z0-9_.#-]*", name, p)
		}
	}
	return nil
}

func validComponent(p string) bool {
	if p == "" {
		return false
	}
	for i := 0; i < len(p); i++ {
		c := p[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case i > 0 && (c == '_' || c == '.' || c == '#' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// Clean maps an arbitrary string onto one legal name component: bytes
// outside [a-z0-9_.#-] are lowercased or replaced with '-'. Layers that
// build metric names from user-chosen identifiers (channel names) sanitize
// through it.
func Clean(s string) string {
	if s == "" {
		return "x"
	}
	b := []byte(strings.ToLower(s))
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case i > 0 && (c == '_' || c == '.' || c == '#' || c == '-'):
		default:
			b[i] = 'x'
			if i > 0 {
				b[i] = '-'
			}
		}
	}
	return string(b)
}

// NamedValue is one named scalar of a snapshot.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NamedHist is one named histogram aggregate of a snapshot.
type NamedHist struct {
	Name string `json:"name"`
	trace.HistSnapshot
}

// Snapshot is a registry's point-in-time view, sorted by name within each
// section so renderings and goldens are deterministic. Collector
// emissions land in Counters, accumulated by name.
type Snapshot struct {
	Counters []NamedValue `json:"counters,omitempty"`
	Gauges   []NamedValue `json:"gauges,omitempty"`
	Hists    []NamedHist  `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current values. Like Channel.Stats,
// fields are read atomically but independently; every value is exact once
// the instrumented paths quiesce. Nil-safe.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Load()
	}
	gauges := make([]NamedValue, 0, len(r.gauges))
	for name, g := range r.gauges {
		gauges = append(gauges, NamedValue{name, g.Load()})
	}
	hists := make([]NamedHist, 0, len(r.hists))
	for name, h := range r.hists {
		if s := h.Snapshot(); s.Count > 0 {
			hists = append(hists, NamedHist{name, s})
		}
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()

	for _, c := range collectors {
		c(func(name string, v int64) { counters[name] += v })
	}
	out := Snapshot{Gauges: gauges, Hists: hists}
	out.Counters = make([]NamedValue, 0, len(counters))
	for name, v := range counters {
		out.Counters = append(out.Counters, NamedValue{name, v})
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Hists, func(i, j int) bool { return out.Hists[i].Name < out.Hists[j].Name })
	return out
}

// Counter finds a named counter value in the snapshot.
func (s Snapshot) Counter(name string) (int64, bool) { return findNamed(s.Counters, name) }

// Gauge finds a named gauge value in the snapshot.
func (s Snapshot) Gauge(name string) (int64, bool) { return findNamed(s.Gauges, name) }

func findNamed(vs []NamedValue, name string) (int64, bool) {
	i := sort.Search(len(vs), func(i int) bool { return vs[i].Name >= name })
	if i < len(vs) && vs[i].Name == name {
		return vs[i].Value, true
	}
	return 0, false
}

// Delta reports the change from prev to s: counter and histogram
// count/sum values subtract pairwise by name (names absent from prev pass
// through whole), gauges keep their current value. madtop renders rates
// from periodic deltas.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{Gauges: append([]NamedValue(nil), s.Gauges...)}
	prevC := make(map[string]int64, len(prev.Counters))
	for _, v := range prev.Counters {
		prevC[v.Name] = v.Value
	}
	for _, v := range s.Counters {
		out.Counters = append(out.Counters, NamedValue{v.Name, v.Value - prevC[v.Name]})
	}
	prevH := make(map[string]trace.HistSnapshot, len(prev.Hists))
	for _, h := range prev.Hists {
		prevH[h.Name] = h.HistSnapshot
	}
	for _, h := range s.Hists {
		d := h
		if p, ok := prevH[h.Name]; ok {
			d.Count -= p.Count
			d.Sum -= p.Sum
		}
		out.Hists = append(out.Hists, d)
	}
	return out
}
