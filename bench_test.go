// Benchmarks: one per reproduced table/figure plus one per ablation.
// Each benchmark drives the real code path of its experiment b.N times and
// reports the *virtual-time* results (latency in virtual µs, bandwidth in
// virtual MB/s) as custom metrics next to Go's wall-clock numbers — the
// virtual metrics are the reproduction; the wall-clock ones only describe
// the simulator's own speed.
package madeleine2_test

import (
	"testing"

	"madeleine2/internal/bench"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/marcel"
	"madeleine2/internal/vclock"
)

// reportPing runs a b.N-iteration ping benchmark on a warm channel.
func reportPing(b *testing.B, driver string, size int) {
	b.Helper()
	_, chans, err := bench.TwoNodes(driver, nil)
	if err != nil {
		b.Fatal(err)
	}
	var t vclock.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err = bench.PingPong(chans, 0, 1, size, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t.Microseconds(), "virt-µs/msg")
	b.ReportMetric(vclock.MBps(size, t), "virt-MB/s")
}

// BenchmarkTable1PackUnpack exercises the Table 1 primitives themselves:
// a minimal two-block message per iteration over SISCI.
func BenchmarkTable1PackUnpack(b *testing.B) {
	_, chans, err := bench.TwoNodes("sisci", nil)
	if err != nil {
		b.Fatal(err)
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	hdr, body := make([]byte, 8), make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, _ := chans[0].BeginPacking(s, 1)
			conn.Pack(hdr, core.SendSafer, core.ReceiveExpress)
			conn.Pack(body, core.SendCheaper, core.ReceiveCheaper)
			conn.EndPacking()
		}()
		conn, err := chans[1].BeginUnpacking(r)
		if err != nil {
			b.Fatal(err)
		}
		conn.Unpack(make([]byte, 8), core.SendSafer, core.ReceiveExpress)
		conn.Unpack(make([]byte, 1024), core.SendCheaper, core.ReceiveCheaper)
		conn.EndUnpacking()
		<-done
	}
}

// BenchmarkTable2TMSelection exercises the Switch step across every TM of
// the SISCI PMM in one message.
func BenchmarkTable2TMSelection(b *testing.B) {
	_, chans, err := bench.TwoNodes("sisci", nil)
	if err != nil {
		b.Fatal(err)
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	sizes := []int{16, 4096, 16384} // short TM, PIO TM, dual TM
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, _ := chans[0].BeginPacking(s, 1)
			for _, n := range sizes {
				conn.Pack(make([]byte, n), core.SendCheaper, core.ReceiveCheaper)
			}
			conn.EndPacking()
		}()
		conn, err := chans[1].BeginUnpacking(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range sizes {
			conn.Unpack(make([]byte, n), core.SendCheaper, core.ReceiveCheaper)
		}
		conn.EndUnpacking()
		<-done
	}
}

// BenchmarkFig4SISCI reproduces the Fig. 4 operating points.
func BenchmarkFig4SISCI(b *testing.B) {
	b.Run("latency-4B", func(b *testing.B) { reportPing(b, "sisci", 4) })
	b.Run("knee-8kB", func(b *testing.B) { reportPing(b, "sisci", 8<<10) })
	b.Run("peak-2MB", func(b *testing.B) { reportPing(b, "sisci", 2<<20) })
}

// BenchmarkFig5BIP reproduces the Fig. 5 operating points.
func BenchmarkFig5BIP(b *testing.B) {
	b.Run("latency-4B", func(b *testing.B) { reportPing(b, "bip", 4) })
	b.Run("crossover-16kB", func(b *testing.B) { reportPing(b, "bip", 16<<10) })
	b.Run("peak-4MB", func(b *testing.B) { reportPing(b, "bip", 4<<20) })
	b.Run("raw-BIP-4B", func(b *testing.B) {
		var t vclock.Time
		var err error
		for i := 0; i < b.N; i++ {
			if t, err = bench.RawBIPPingPong(4, 3); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(t.Microseconds(), "virt-µs/msg")
	})
}

// BenchmarkFig6MPI reproduces the Fig. 6 ch_mad points.
func BenchmarkFig6MPI(b *testing.B) {
	for _, size := range []int{4, 32 << 10, 1 << 20} {
		size := size
		b.Run(benchName(size), func(b *testing.B) {
			var t vclock.Time
			var err error
			for i := 0; i < b.N; i++ {
				if t, err = bench.MPIPingPong("sisci", size); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(t.Microseconds(), "virt-µs/msg")
			b.ReportMetric(vclock.MBps(size, t), "virt-MB/s")
		})
	}
}

// BenchmarkFig7Nexus reproduces the Fig. 7 RSR points.
func BenchmarkFig7Nexus(b *testing.B) {
	for _, drv := range []string{"sisci", "tcp"} {
		drv := drv
		b.Run(drv, func(b *testing.B) {
			var t vclock.Time
			var err error
			for i := 0; i < b.N; i++ {
				if t, err = bench.NexusRSREcho(drv, 4); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(t.Microseconds(), "virt-µs/rsr")
		})
	}
}

// benchFwd measures one forwarding configuration per iteration.
func benchFwd(b *testing.B, mtu int, sciToMyri bool, mutate func(*fwd.Spec)) {
	b.Helper()
	var bw float64
	for i := 0; i < b.N; i++ {
		vcs, err := bench.HetVC(bench.NextName("bench"), mtu, 1, 0, nil, false, nil, mutate)
		if err != nil {
			b.Fatal(err)
		}
		src, dst := 0, 4
		if !sciToMyri {
			src, dst = 4, 0
		}
		t, err := bench.ForwardedStream(vcs, src, dst, 2<<20)
		bench.CloseVCs(vcs)
		if err != nil {
			b.Fatal(err)
		}
		bw = vclock.MBps(2<<20, t)
	}
	b.ReportMetric(bw, "virt-MB/s")
}

// BenchmarkFig10FwdSCIToMyri reproduces the Fig. 10 packet-size sweep.
func BenchmarkFig10FwdSCIToMyri(b *testing.B) {
	for _, mtu := range []int{8 << 10, 16 << 10, 128 << 10} {
		mtu := mtu
		b.Run(benchName(mtu), func(b *testing.B) { benchFwd(b, mtu, true, nil) })
	}
}

// BenchmarkFig11FwdMyriToSCI reproduces the Fig. 11 packet-size sweep.
func BenchmarkFig11FwdMyriToSCI(b *testing.B) {
	for _, mtu := range []int{8 << 10, 16 << 10, 128 << 10} {
		mtu := mtu
		b.Run(benchName(mtu), func(b *testing.B) { benchFwd(b, mtu, false, nil) })
	}
}

// BenchmarkAblationDualBuffer compares SISCI with and without the
// dual-buffering TM at 2 MB.
func BenchmarkAblationDualBuffer(b *testing.B) {
	b.Run("dual-on", func(b *testing.B) { reportPing(b, "sisci", 2<<20) })
	b.Run("dual-off", func(b *testing.B) { reportPing(b, "sisci-nodual", 2<<20) })
}

// BenchmarkAblationDMA shows the disabled-by-default SCI DMA mode.
func BenchmarkAblationDMA(b *testing.B) {
	b.Run("pio-dual", func(b *testing.B) { reportPing(b, "sisci", 256<<10) })
	b.Run("dma", func(b *testing.B) { reportPing(b, "sisci-dma", 256<<10) })
}

// BenchmarkAblationAggregation compares aggregated vs flushed-per-block
// multi-block messages over TCP.
func BenchmarkAblationAggregation(b *testing.B) {
	run := func(rm core.RecvMode) func(*testing.B) {
		return func(b *testing.B) {
			var t vclock.Time
			var err error
			for i := 0; i < b.N; i++ {
				if t, err = bench.BlocksOneWay("tcp", 16, 512, core.SendCheaper, rm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(t.Microseconds(), "virt-µs/msg")
		}
	}
	b.Run("cheaper-aggregated", run(core.ReceiveCheaper))
	b.Run("express-flushed", run(core.ReceiveExpress))
}

// BenchmarkAblationExpress measures receive_EXPRESS cost on the SISCI
// short path.
func BenchmarkAblationExpress(b *testing.B) {
	run := func(rm core.RecvMode) func(*testing.B) {
		return func(b *testing.B) {
			var t vclock.Time
			var err error
			for i := 0; i < b.N; i++ {
				if t, err = bench.BlocksOneWay("sisci", 8, 64, core.SendCheaper, rm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(t.Microseconds(), "virt-µs/msg")
		}
	}
	b.Run("cheaper", run(core.ReceiveCheaper))
	b.Run("express", run(core.ReceiveExpress))
}

// BenchmarkAblationMTU sweeps the forwarding packet size (§6.2.1).
func BenchmarkAblationMTU(b *testing.B) {
	for _, mtu := range []int{4 << 10, 16 << 10, 64 << 10} {
		mtu := mtu
		b.Run(benchName(mtu), func(b *testing.B) { benchFwd(b, mtu, true, nil) })
	}
}

// BenchmarkAblationGatewayCopy measures the §6.1 hand-off optimization.
func BenchmarkAblationGatewayCopy(b *testing.B) {
	b.Run("handoff", func(b *testing.B) { benchFwd(b, 16<<10, false, nil) })
	b.Run("forced-copy", func(b *testing.B) {
		benchFwd(b, 16<<10, false, func(s *fwd.Spec) { s.ForceGatewayCopy = true })
	})
}

// BenchmarkAblationBandwidthControl measures the §7 future-work extension.
func BenchmarkAblationBandwidthControl(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchFwd(b, 128<<10, false, nil) })
	b.Run("throttle-45", func(b *testing.B) {
		benchFwd(b, 128<<10, false, func(s *fwd.Spec) { s.BandwidthControl = 45 })
	})
}

func benchName(n int) string {
	switch {
	case n >= 1<<20:
		return itoa(n>>20) + "MB"
	case n >= 1<<10:
		return itoa(n>>10) + "kB"
	default:
		return itoa(n) + "B"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationPolling measures the §7 Marcel mechanisms' per-message
// added latency on sparse arrivals.
func BenchmarkAblationPolling(b *testing.B) {
	run := func(pol marcel.Policy) func(*testing.B) {
		return func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				_, chans, err := bench.TwoNodes("sisci", nil)
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					a := vclock.NewActor("src")
					a.Advance(vclock.Micros(150))
					conn, _ := chans[0].BeginPacking(a, 1)
					conn.Pack([]byte{1}, core.SendCheaper, core.ReceiveExpress)
					conn.EndPacking()
				}()
				l := marcel.NewListener(chans[1], pol, marcel.Config{})
				r := vclock.NewActor("srv")
				conn, err := l.Await(r)
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, 1)
				conn.Unpack(buf, core.SendCheaper, core.ReceiveExpress)
				conn.EndUnpacking()
				lat = l.Stats().AddedLat.Microseconds()
			}
			b.ReportMetric(lat, "virt-µs-added")
		}
	}
	b.Run("polling", run(marcel.Polling))
	b.Run("interrupt", run(marcel.Interrupt))
	b.Run("adaptive", run(marcel.Adaptive))
}
