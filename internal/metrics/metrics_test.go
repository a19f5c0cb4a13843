package metrics_test

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"madeleine2/internal/metrics"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.Counter("fwd/rel/packet")
	c.Add(3)
	c.Add(4)
	if got := c.Load(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	if r.Counter("fwd/rel/packet") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("async/runq-max")
	g.SetMax(5)
	g.SetMax(3)
	g.SetMax(9)
	if got := g.Load(); got != 9 {
		t.Fatalf("gauge high-water = %d, want 9", got)
	}
	g.Set(2)
	if got := g.Load(); got != 2 {
		t.Fatalf("gauge after Set = %d, want 2", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *metrics.Registry
	c := r.Counter("a/b")
	c.Add(1) // must not panic
	if c.Load() != 0 {
		t.Fatal("nil counter loaded nonzero")
	}
	g := r.Gauge("a/b")
	g.Set(1)
	g.SetMax(2)
	if g.Load() != 0 {
		t.Fatal("nil gauge loaded nonzero")
	}
	r.Histogram("a/b").Observe(5)
	r.RegisterCollector(func(func(string, int64)) {})
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestConcurrentHighWater(t *testing.T) {
	r := metrics.NewRegistry()
	g := r.Gauge("async/occupancy-max")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for j := int64(0); j < 1000; j++ {
				g.SetMax(base*1000 + j)
			}
		}(int64(i))
	}
	wg.Wait()
	if got := g.Load(); got != 7999 {
		t.Fatalf("concurrent high-water = %d, want 7999", got)
	}
}

func TestSnapshotSortedAndCollected(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("z/last").Add(1)
	r.Counter("a/first").Add(2)
	r.Gauge("m/mid").Set(3)
	r.Histogram("core/lat/tcp").Observe(100)
	// Two collectors emitting the same name must accumulate, modeling
	// per-rank collectors summing into a cluster-wide total.
	r.RegisterCollector(func(emit func(string, int64)) { emit("fault/dropped", 4) })
	r.RegisterCollector(func(emit func(string, int64)) { emit("fault/dropped", 6) })

	s := r.Snapshot()
	var names []string
	for _, v := range s.Counters {
		names = append(names, v.Name)
	}
	want := []string{"a/first", "fault/dropped", "z/last"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("counter order = %v, want %v", names, want)
	}
	if v, ok := s.Counter("fault/dropped"); !ok || v != 10 {
		t.Fatalf("collected fault/dropped = %d,%v, want 10,true", v, ok)
	}
	if v, ok := s.Gauge("m/mid"); !ok || v != 3 {
		t.Fatalf("gauge m/mid = %d,%v, want 3,true", v, ok)
	}
	if len(s.Hists) != 1 || s.Hists[0].Name != "core/lat/tcp" || s.Hists[0].Count != 1 {
		t.Fatalf("hists = %+v, want one core/lat/tcp with count 1", s.Hists)
	}
}

func TestDelta(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("fwd/rel/packet").Add(10)
	r.Gauge("async/cq-depth-max").Set(4)
	prev := r.Snapshot()
	r.Counter("fwd/rel/packet").Add(5)
	r.Counter("fwd/rel/retransmit").Add(2)
	r.Gauge("async/cq-depth-max").Set(6)

	d := r.Snapshot().Delta(prev)
	if v, _ := d.Counter("fwd/rel/packet"); v != 5 {
		t.Fatalf("delta packet = %d, want 5", v)
	}
	if v, _ := d.Counter("fwd/rel/retransmit"); v != 2 {
		t.Fatalf("delta retransmit (new name) = %d, want 2", v)
	}
	if v, _ := d.Gauge("async/cq-depth-max"); v != 6 {
		t.Fatalf("delta gauge keeps current value, got %d want 6", v)
	}
}

func TestCheckName(t *testing.T) {
	good := []string{"fwd/rel/packet", "async/runq-max", "fault/dropped",
		"chan/bip/msgs-out", "core/lat/tcp#1/p99", "a0/b_c.d"}
	for _, n := range good {
		if err := metrics.CheckName(n); err != nil {
			t.Errorf("CheckName(%q) = %v, want nil", n, err)
		}
	}
	bad := []string{"", "single", "a/b/c/d/e", "Upper/case", "a//b",
		"-lead/x", "a/b c", "fwd/", "/fwd"}
	// The registry applies the same check where a name enters the schema:
	// creating a handle for a bad name panics with CheckName's error.
	r := metrics.NewRegistry()
	create := map[string]func(string){
		"Counter":   func(n string) { r.Counter(n) },
		"Gauge":     func(n string) { r.Gauge(n) },
		"Histogram": func(n string) { r.Histogram(n) },
	}
	for _, n := range bad {
		err := metrics.CheckName(n)
		if err == nil {
			t.Errorf("CheckName(%q) = nil, want error", n)
			continue
		}
		for kind, mk := range create {
			func() {
				defer func() {
					if got, _ := recover().(error); got == nil || got.Error() != err.Error() {
						t.Errorf("Registry.%s(%q) panicked with %v, want %v", kind, n, got, err)
					}
				}()
				mk(n)
			}()
		}
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges) != 0 {
		t.Errorf("rejected names left handles behind: %+v", s)
	}
	// Only creation checks: a repeat lookup of a good name allocates
	// nothing, and CheckName allocates (it splits the name).
	for kind, mk := range create {
		mk(good[0])
		if n := testing.AllocsPerRun(100, func() { mk(good[0]) }); n != 0 {
			t.Errorf("repeat Registry.%s(%q) allocates %v times, want 0", kind, good[0], n)
		}
	}
}

func TestClean(t *testing.T) {
	cases := map[string]string{
		"bip":      "bip",
		"Bip Chan": "bip-chan",
		"":         "x",
		"-x":       "xx",
		"a#2":      "a#2",
	}
	for in, want := range cases {
		if got := metrics.Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
		if got := metrics.Clean(in); metrics.CheckName("chan/"+got) != nil {
			t.Errorf("Clean(%q) = %q is not a legal component", in, got)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("fwd/rel/packet").Add(12)
	r.Gauge("async/runq-max").Set(7)
	r.Histogram("core/lat/tcp").Observe(250)
	s := r.Snapshot()

	var b strings.Builder
	if err := s.JSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := metrics.ParseSnapshot(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Counter("fwd/rel/packet"); v != 12 {
		t.Fatalf("round-tripped counter = %d, want 12", v)
	}
	if v, _ := got.Gauge("async/runq-max"); v != 7 {
		t.Fatalf("round-tripped gauge = %d, want 7", v)
	}
	if len(got.Hists) != 1 || got.Hists[0].Count != 1 {
		t.Fatalf("round-tripped hists = %+v", got.Hists)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("fwd/rel/packet").Add(12)
	r.Gauge("async/cq-depth-max").Set(3)
	r.Histogram("core/lat/tcp").Observe(1000)
	var b strings.Builder
	if err := r.Snapshot().Prometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mad2_fwd_rel_packet counter",
		"mad2_fwd_rel_packet 12",
		"# TYPE mad2_async_cq_depth_max gauge",
		"mad2_async_cq_depth_max 3",
		"# TYPE mad2_core_lat_tcp summary",
		"mad2_core_lat_tcp_count 1",
		"mad2_core_lat_tcp_sum 1000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q in:\n%s", want, out)
		}
	}
}

func TestServe(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("fwd/rel/packet").Add(5)
	srv, err := metrics.Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "mad2_fwd_rel_packet 5") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	resp, err = http.Get(srv.URL() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := metrics.ParseSnapshot(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Counter("fwd/rel/packet"); !ok || v != 5 {
		t.Fatalf("/metrics.json counter = %d,%v, want 5,true", v, ok)
	}
}
