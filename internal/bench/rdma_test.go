package bench

import (
	"testing"

	"madeleine2/internal/vclock"
)

// BenchmarkRDMACrossover reports virtual bandwidth at 1 MB for the two
// forced transmission modules and the switched channel.
func BenchmarkRDMACrossover(b *testing.B) {
	const size = RDMAAnchorSize
	for _, drv := range []string{"rdma-eager", "rdma-rdv", "rdma"} {
		b.Run(drv, func(b *testing.B) {
			_, chans, err := TwoNodes(drv, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			t, err := PingPong(chans, 0, 1, size, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(vclock.MBps(size, t), "virtMB/s")
		})
	}
}

// TestRDMACrossoverAcceptance pins the ISSUE's acceptance criteria on the
// simnet model: rendezvous beats eager by at least 1.5x at 1 MB, the
// switched channel matches forced-eager latency at small sizes (±5%), and
// across the whole bandwidth sweep the switched series tracks the better
// of the two forced modules within 5%.
func TestRDMACrossoverAcceptance(t *testing.T) {
	res, err := RDMACrossover()
	if err != nil {
		t.Fatal(err)
	}
	curves := make(map[string]Series)
	for _, s := range res.Series {
		curves[s.Name] = s
	}
	eg, ok1 := curves["rdma-eager"].At(RDMAAnchorSize)
	rv, ok2 := curves["rdma-rdv"].At(RDMAAnchorSize)
	if !ok1 || !ok2 {
		t.Fatal("sweep is missing the 1 MB point")
	}
	if speedup := float64(eg.OneWay) / float64(rv.OneWay); speedup < 1.5 {
		t.Errorf("rendezvous speedup at 1 MB = %.2fx (eager %v, rdv %v), want >= 1.5x",
			speedup, eg.OneWay, rv.OneWay)
	}
	for _, a := range res.Anchors {
		switch {
		case a.Measured <= 0:
			t.Errorf("anchor %q not measured: %+v", a.Name, a)
		case a.Paper == 1 && (a.Measured < 0.95 || a.Measured > 1.05):
			t.Errorf("anchor %q = %.3fx, want within 5%% of parity", a.Name, a.Measured)
		}
	}
	for _, size := range BwSizes {
		sw, _ := curves["rdma"].At(size)
		e, _ := curves["rdma-eager"].At(size)
		r, _ := curves["rdma-rdv"].At(size)
		best := e.OneWay
		if r.OneWay < best {
			best = r.OneWay
		}
		if ratio := float64(sw.OneWay) / float64(best); ratio > 1.05 {
			t.Errorf("%d B: switched %v vs best-of-two %v (%.2fx, want <= 1.05x)",
				size, sw.OneWay, best, ratio)
		}
	}
}
