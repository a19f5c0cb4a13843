package bench

import (
	"fmt"
	"testing"

	"madeleine2/internal/vclock"
)

// BenchmarkStripe is the rail-scaling benchmark of the acceptance
// criteria: 1 MB ping-pongs over 1, 2 and 4 tcp rails. The interesting
// metric is virtual bandwidth (virtMB/s), not wall time — the fabric is
// simulated.
func BenchmarkStripe(b *testing.B) {
	const size = StripeAnchorSize
	for _, nr := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("rails=%d", nr), func(b *testing.B) {
			_, chans, err := TwoNodesRails("tcp", nr, 0, nil)
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

// TestStripeScalingAcceptance pins the ISSUE's acceptance criteria on the
// simnet model: two tcp rails deliver at least 1.5x the single-rail
// large-message throughput, and express small-message latency is
// unchanged (±5%) on a striping-enabled channel vs a plain one.
func TestStripeScalingAcceptance(t *testing.T) {
	oneWay := func(rails, size int) vclock.Time {
		_, chans, err := TwoNodesRails("tcp", rails, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		tw, err := PingPong(chans, 0, 1, size, 5)
		if err != nil {
			t.Fatal(err)
		}
		return tw
	}
	t1, t2 := oneWay(1, StripeAnchorSize), oneWay(2, StripeAnchorSize)
	if speedup := float64(t1) / float64(t2); speedup < 1.5 {
		t.Errorf("2-rail speedup at 1 MB = %.2fx (1 rail %v, 2 rails %v), want >= 1.5x", speedup, t1, t2)
	}

	_, plain, err := TwoNodes("tcp", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 256, 4096} {
		tp, err := PingPong(plain, 0, 1, n, 5)
		if err != nil {
			t.Fatal(err)
		}
		tr := oneWay(2, n)
		if d := float64(tr-tp) / float64(tp); d < -0.05 || d > 0.05 {
			t.Errorf("%d B express latency: plain %v vs 2-rail %v (%.1f%% off, want ±5%%)", n, tp, tr, 100*d)
		}
	}
}

// TestStripeScalingFigure smoke-tests the madbench figure end to end.
func TestStripeScalingFigure(t *testing.T) {
	res, err := StripeScaling("tcp", []int{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || len(res.Anchors) != 2 {
		t.Fatalf("series = %d, anchors = %d, want 2 and 2", len(res.Series), len(res.Anchors))
	}
	for _, a := range res.Anchors {
		if a.Measured <= 0 {
			t.Errorf("anchor %q not measured: %+v", a.Name, a)
		}
	}
	// The builder knows every built-in driver's fabric, ablation variants
	// included.
	if _, _, err := TwoNodesRails("sisci-nodual", 1, 0, nil); err != nil {
		t.Error(err)
	}
}
