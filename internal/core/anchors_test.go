package core

import (
	"testing"

	"madeleine2/internal/vclock"
)

// oneWay measures the one-way virtual time of a single n-byte CHEAPER/
// CHEAPER message on a fresh channel of the driver.
func oneWay(t *testing.T, driver string, n int) vclock.Time {
	t.Helper()
	_, rT := roundTrip(t, driver, []block{{pattern(n, 9), SendCheaper, ReceiveCheaper}})
	return rT
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.2f, want %.2f ±%.0f%%", name, got, want, tol*100)
	}
}

func TestMadeleineSISCILatencyAnchor(t *testing.T) {
	// Fig. 4: "the minimal latency is very low (3.9 µs)".
	lat := oneWay(t, "sisci", 4)
	within(t, "Mad/SISCI 4B latency (µs)", lat.Microseconds(), 3.9, 0.08)
}

func TestMadeleineBIPLatencyAnchor(t *testing.T) {
	// Fig. 5 / §5.2.2: "a minimal latency of 7 µs" (raw BIP: 5 µs).
	lat := oneWay(t, "bip", 4)
	within(t, "Mad/BIP 4B latency (µs)", lat.Microseconds(), 7, 0.08)
}

func TestMadeleineSISCIBandwidthAnchors(t *testing.T) {
	// §6.2.2: ≈58 MB/s at 8 kB; Fig. 4: 82 MB/s asymptote with the
	// dual-buffering knee at 8 kB.
	within(t, "Mad/SISCI 8kB MB/s", vclock.MBps(8<<10, oneWay(t, "sisci", 8<<10)), 58, 0.10)
	within(t, "Mad/SISCI 2MB MB/s", vclock.MBps(2<<20, oneWay(t, "sisci", 2<<20)), 82, 0.06)
	// The knee: crossing 8 kB must not lose bandwidth.
	below := vclock.MBps(8<<10-256, oneWay(t, "sisci", 8<<10-256))
	at := vclock.MBps(8<<10, oneWay(t, "sisci", 8<<10))
	if at < below {
		t.Errorf("dual-buffering knee inverted: %.1f MB/s at 8 kB vs %.1f just below", at, below)
	}
}

func TestMadeleineBIPBandwidthAnchors(t *testing.T) {
	// §6.2.2: ≈47 MB/s at 8 kB; §6.2.1: ≈250 µs / ≈60 MB/s at 16 kB;
	// Fig. 5: 122 MB/s asymptote (raw BIP: 126 MB/s).
	within(t, "Mad/BIP 8kB MB/s", vclock.MBps(8<<10, oneWay(t, "bip", 8<<10)), 47, 0.12)
	within(t, "Mad/BIP 16kB µs", oneWay(t, "bip", 16<<10).Microseconds(), 250, 0.12)
	within(t, "Mad/BIP 4MB MB/s", vclock.MBps(4<<20, oneWay(t, "bip", 4<<20)), 122, 0.05)
}

func TestPacketSizeCrossover(t *testing.T) {
	// §6.2.1: "Madeleine II achieves approximately the same performance on
	// top of Myrinet and SCI for messages of size 16 kB (latency: ca.
	// 250 µs, bandwidth: ca. 60 MB/s), which suggests that the correct
	// packet size should be set to 16 kB."
	sci := oneWay(t, "sisci", 16<<10)
	myri := oneWay(t, "bip", 16<<10)
	ratio := float64(sci) / float64(myri)
	if ratio < 0.80 || ratio > 1.25 {
		t.Errorf("16 kB one-way: SCI %v vs Myrinet %v (ratio %.2f), want ≈equal", sci, myri, ratio)
	}
	// And below 16 kB SCI wins while above it Myrinet closes in — "SCI
	// achieves very good performance for small messages, whereas Myrinet
	// behaves better for large messages".
	if oneWay(t, "sisci", 1024) >= oneWay(t, "bip", 1024) {
		t.Error("SCI must win at small sizes")
	}
	if oneWay(t, "sisci", 1<<20) <= oneWay(t, "bip", 1<<20) {
		t.Error("Myrinet must win at large sizes")
	}
}

func TestSCIDMAModeIsWorse(t *testing.T) {
	// §5.2.1: the DMA TM exists but is disabled because it cannot beat
	// 35 MB/s — the PIO dual-buffering path must dominate it.
	pio := oneWay(t, "sisci", 256<<10)
	dma := oneWay(t, "sisci-dma", 256<<10)
	if dma <= pio {
		t.Errorf("DMA mode (%v) must be slower than dual-buffered PIO (%v)", dma, pio)
	}
	if bw := vclock.MBps(256<<10, dma); bw > 35 {
		t.Errorf("DMA bandwidth %.1f MB/s exceeds the D310 measurement ceiling", bw)
	}
}

func TestBandwidthMonotoneAllDrivers(t *testing.T) {
	for _, drv := range Drivers() {
		if drv == "sisci-dma" {
			// The DMA TM *does* collapse above its threshold — that is
			// the paper's reason for disabling it (TestSCIDMAModeIsWorse).
			continue
		}
		t.Run(drv, func(t *testing.T) {
			prev := 0.0
			for _, n := range []int{256, 4 << 10, 64 << 10, 1 << 20} {
				bw := vclock.MBps(n, oneWay(t, drv, n))
				// Allow a small dip at TM boundaries (the real curves
				// have them too), but no collapse.
				if bw < prev*0.7 {
					t.Errorf("%s: bandwidth collapsed at %d bytes: %.1f after %.1f", drv, n, bw, prev)
				}
				if bw > prev {
					prev = bw
				}
			}
		})
	}
}

func TestExpressSmallIsCheapestPath(t *testing.T) {
	// An EXPRESS header must not cost more than a CHEAPER one at the
	// 4-byte scale — the short TMs serve both.
	chans, _ := newTestChannel(t, "sisci")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	go func() {
		conn, _ := chans[0].BeginPacking(s, 1)
		conn.Pack([]byte{1, 2, 3, 4}, SendCheaper, ReceiveExpress)
		conn.EndPacking()
	}()
	conn, _ := chans[1].BeginUnpacking(r)
	buf := make([]byte, 4)
	conn.Unpack(buf, SendCheaper, ReceiveExpress)
	conn.EndUnpacking()
	within(t, "EXPRESS 4B over SISCI (µs)", r.Now().Microseconds(), 3.9, 0.08)
}
