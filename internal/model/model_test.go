package model

import (
	"math/rand"
	"testing"
	"testing/quick"

	"madeleine2/internal/vclock"
)

func TestLinkTime(t *testing.T) {
	l := Link{Name: "x", Fixed: vclock.Micros(10), Bandwidth: 100}
	if got := l.Time(0); got != vclock.Micros(10) {
		t.Errorf("Time(0) = %v, want 10µs", got)
	}
	// 100 MB/s = 100 bytes/µs: 1000 bytes take 10µs.
	if got := l.Time(1000); got != vclock.Micros(20) {
		t.Errorf("Time(1000) = %v, want 20µs", got)
	}
	if got := l.ByteTime(1000); got != vclock.Micros(10) {
		t.Errorf("ByteTime(1000) = %v, want 10µs", got)
	}
	if got := l.Rate(1000); got != 50 {
		t.Errorf("Rate(1000) = %g, want 50", got)
	}
}

func TestLinkScaled(t *testing.T) {
	l := Link{Fixed: vclock.Micros(40), Bandwidth: 82, Kind: PIO}
	s := l.Scaled(2)
	if s.Bandwidth != 41 || s.Fixed != l.Fixed || s.Kind != PIO {
		t.Errorf("Scaled(2) = %+v", s)
	}
	if bad := l.Scaled(0); bad.Bandwidth != 82 {
		t.Errorf("Scaled(0) must be identity, got %+v", bad)
	}
}

func TestLinkRateMonotone(t *testing.T) {
	// Property: effective rate grows with message size and approaches the
	// sustained bandwidth from below. Link.Time truncates to whole
	// nanoseconds, so the small message gets one quantum of slack: without
	// it VIASend dips from 92.77354 MB/s at 35623 B to 92.77344 at 35625.
	f := func(a, c uint16) bool {
		small, big := int(a)+1, int(a)+1+int(c)+1
		for _, l := range []Link{BIPLong, SISCIDual, TCPFE, VIASend, SBP} {
			if vclock.MBps(small, l.Time(small)+1) > l.Rate(big) {
				return false
			}
			if l.Rate(big) > l.Bandwidth {
				return false
			}
		}
		return true
	}
	if !f(0x8b26, 1) {
		t.Error("property fails on (0x8b26, 1), the pair the unslacked form broke on")
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCalibrationAnchors(t *testing.T) {
	// Raw-driver anchors from §5.2 (library costs are added by the core on
	// top of these, tested in the core package).
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s = %.1f, want %.1f ±%.0f%%", name, got, want, tol*100)
		}
	}
	// SISCI asymptote: 82 MB/s (§5.2.1).
	within("SISCI dual-buffer asymptote", SISCIDual.Rate(4<<20), 82, 0.05)
	// SISCI at 8 kB: ≈58 MB/s (§6.2.2).
	within("SISCI at 8kB", SISCIDual.Rate(8192), 58, 0.10)
	// SCI DMA mode must stay at or below 35 MB/s (§5.2.1).
	if r := SISCIDMA.Rate(4 << 20); r > 35 {
		t.Errorf("SISCI DMA asymptote = %.1f, must be ≤ 35", r)
	}
	// BIP raw asymptote: 126 MB/s (§5.2.2). Fixed costs vanish at 8 MB.
	within("BIP long asymptote", BIPLong.Rate(8<<20), 126, 0.03)
	// BIP long with its rendezvous round-trip at 16 kB ≈ 60 MB/s / 250 µs.
	rdv := BIPLong.Time(16384) + 2*BIPControl.Time(0)
	within("BIP 16kB one-way µs", rdv.Microseconds(), 250, 0.10)
	// Raw BIP short latency: 5 µs.
	within("BIP short latency µs", BIPShort.Time(4).Microseconds(), 5, 0.05)
	// Dual-buffering must beat single-buffer PIO from 8 kB on (the Fig. 4
	// knee), and lose below ~6 kB.
	if SISCIDual.Time(8192) >= SISCIPIO.Time(8192) {
		t.Error("dual-buffering must win at 8 kB")
	}
	if SISCIDual.Time(2048) <= SISCIPIO.Time(2048) {
		t.Error("single-buffer PIO must win at 2 kB")
	}
}

func stepRate(b *PCIBus, rx, tx Link, n int) float64 {
	return vclock.MBps(n, b.StepPeriod(rx, tx, n, GatewayStepOverhead))
}

// bipEffective is the gateway's effective BIP long-path link: the DMA cost
// plus the explicit rendezvous round-trip folded into the fixed term.
func bipEffective() Link {
	l := BIPLong
	l.Fixed += 2 * BIPControl.Time(0)
	return l
}

func TestStepTimesFig10Anchors(t *testing.T) {
	// SCI→Myrinet forwarding (Fig. 10): rx over SISCI, tx over BIP.
	bus := DefaultPCI()
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s = %.1f MB/s, want %.1f ±%.0f%%", name, got, want, tol*100)
		}
	}
	// 8 kB packets: 36.5 MB/s — light load, software overhead dominates.
	within("Fig10 8kB", stepRate(bus, SISCIDual, bipEffective(), 8192), 36.5, 0.10)
	// 128 kB packets: ≈49.5 MB/s — full-duplex PCI saturation.
	within("Fig10 128kB", stepRate(bus, SISCIDual, bipEffective(), 128<<10), 49.5, 0.06)
	// Monotone in packet size, as in the figure.
	prev := 0.0
	for _, kb := range []int{8, 16, 32, 64, 128} {
		r := stepRate(bus, SISCIDual, bipEffective(), kb<<10)
		if r < prev {
			t.Errorf("Fig10 series not monotone at %d kB: %.1f after %.1f", kb, r, prev)
		}
		prev = r
	}
}

func TestStepTimesFig11Anchors(t *testing.T) {
	// Myrinet→SCI forwarding (Fig. 11): rx over BIP (DMA), tx over SISCI
	// (PIO) — the DMA-priority starvation direction.
	bus := DefaultPCI()
	r8 := stepRate(bus, bipEffective(), SISCIDual, 8192)
	if r8 < 24 || r8 > 31 {
		t.Errorf("Fig11 8kB = %.1f MB/s, want ≈29 (24–31)", r8)
	}
	r128 := stepRate(bus, bipEffective(), SISCIDual, 128<<10)
	// "the asymptotic bandwidth obtained for larger packets remains under
	// 36.5 MB/s" (§6.2.3).
	if r128 >= 36.5 {
		t.Errorf("Fig11 asymptote = %.1f MB/s, must remain under 36.5", r128)
	}
	if r128 < 32 {
		t.Errorf("Fig11 asymptote = %.1f MB/s, want ≈35", r128)
	}
	// The whole Fig. 11 series sits below the Fig. 10 series.
	for _, kb := range []int{8, 16, 32, 64, 128} {
		f10 := stepRate(bus, SISCIDual, bipEffective(), kb<<10)
		f11 := stepRate(bus, bipEffective(), SISCIDual, kb<<10)
		if f11 >= f10 {
			t.Errorf("at %d kB packets: Myri→SCI %.1f must be below SCI→Myri %.1f", kb, f11, f10)
		}
	}
}

func TestStepTimesLightLoadIsNominal(t *testing.T) {
	bus := DefaultPCI()
	slow := Link{Fixed: vclock.Micros(100), Bandwidth: 10, Kind: DMA}
	trx, ttx := bus.StepTimes(slow, slow, 1024)
	if trx != slow.Time(1024) || ttx != slow.Time(1024) {
		t.Errorf("light load must be nominal: got %v/%v want %v", trx, ttx, slow.Time(1024))
	}
	// A light-load step's period is not affected by the bus floor.
	want := slow.Time(1024) + GatewayStepOverhead
	if got := bus.StepPeriod(slow, slow, 1024, GatewayStepOverhead); got != want {
		t.Errorf("StepPeriod = %v, want %v", got, want)
	}
}

func TestStepTimesZeroSize(t *testing.T) {
	bus := DefaultPCI()
	trx, ttx := bus.StepTimes(SISCIDual, BIPLong, 0)
	if trx != SISCIDual.Fixed || ttx != BIPLong.Fixed {
		t.Errorf("zero size: %v/%v", trx, ttx)
	}
	if bus.Floor(0) != 0 {
		t.Errorf("Floor(0) = %v", bus.Floor(0))
	}
}

func TestStepTimesPIOPenaltyDisabled(t *testing.T) {
	bus := &PCIBus{AggregateCap: 100, OneWayCap: 60, PIOPenalty: 1}
	trx, ttx := bus.StepTimes(bipEffective(), SISCIDual, 8192)
	// With the penalty disabled both transfers are nominal.
	if trx != bipEffective().Time(8192) || ttx != SISCIDual.Time(8192) {
		t.Errorf("penalty-off step = %v/%v", trx, ttx)
	}
}

func TestBusFloorConservation(t *testing.T) {
	// Property: the step period never admits more than AggregateCap of
	// combined traffic, and per-stream times are never faster than nominal.
	bus := DefaultPCI()
	f := func(kb uint8) bool {
		n := (int(kb%120) + 1) << 10 // 1 kB .. 120 kB
		trx, ttx := bus.StepTimes(SISCIDual, bipEffective(), n)
		if trx < SISCIDual.Time(n) || ttx < bipEffective().Time(n) {
			return false // contention can only slow transfers down
		}
		period := bus.StepPeriod(SISCIDual, bipEffective(), n, GatewayStepOverhead)
		return vclock.MBps(2*n, period) <= bus.AggregateCap+1e-9
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestDefaultPCIValues(t *testing.T) {
	b := DefaultPCI()
	if b.AggregateCap <= b.OneWayCap {
		t.Error("aggregate capacity must exceed the one-way cap")
	}
	if b.PIOPenalty <= 1 {
		t.Error("PIO penalty must slow PIO down")
	}
}
