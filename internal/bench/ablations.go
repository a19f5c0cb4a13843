package bench

import (
	"fmt"

	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/madv1"
	"madeleine2/internal/marcel"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/vclock"
)

// Ablations exercises the design choices DESIGN.md calls out, one Result
// per choice, so their effect is visible next to the paper figures.

// AblationDualBuffer compares the SISCI PMM with and without the adaptive
// dual-buffering TM (the Fig. 4 knee's cause).
func AblationDualBuffer() (Result, error) {
	series := make([]Series, 0, 2)
	for _, drv := range []string{"sisci", "sisci-nodual"} {
		_, chans, err := TwoNodes(drv, nil)
		if err != nil {
			return Result{}, err
		}
		s, err := Sweep("driver "+drv, chans, 0, 1, []int{8 << 10, 64 << 10, 1 << 20, 2 << 20})
		if err != nil {
			return Result{}, err
		}
		series = append(series, s)
	}
	on, _ := series[0].At(2 << 20)
	off, _ := series[1].At(2 << 20)
	return Result{
		ID:     "abl-dual",
		Title:  "Ablation: SISCI adaptive dual-buffering on/off",
		Series: series,
		Anchors: []Anchor{
			{Name: "2 MB with dual-buffering", Paper: 82, Measured: on.Bandwidth(), Unit: "MB/s"},
			{Name: "2 MB without", Paper: 55, Measured: off.Bandwidth(), Unit: "MB/s (regular PIO)"},
		},
		Notes: "the knee at 8 kB exists because the dual TM wins there",
	}, nil
}

// AblationDMA shows why the SCI DMA TM ships disabled (§5.2.1).
func AblationDMA() (Result, error) {
	series := make([]Series, 0, 2)
	for _, drv := range []string{"sisci", "sisci-dma"} {
		_, chans, err := TwoNodes(drv, nil)
		if err != nil {
			return Result{}, err
		}
		s, err := Sweep("driver "+drv, chans, 0, 1, []int{16 << 10, 256 << 10, 2 << 20})
		if err != nil {
			return Result{}, err
		}
		series = append(series, s)
	}
	dma, _ := series[1].At(2 << 20)
	return Result{
		ID:     "abl-dma",
		Title:  "Ablation: SCI DMA transmission module",
		Series: series,
		Anchors: []Anchor{
			{Name: "DMA-mode bandwidth", Paper: 35, Measured: dma.Bandwidth(), Unit: "MB/s (D310 ceiling)"},
		},
		Notes: "implemented but not active by default, matching §5.2.1",
	}, nil
}

// AblationAggregation measures what the aggregating BMM buys on TCP: many
// small CHEAPER blocks leave in one kernel message, EXPRESS blocks flush
// one message each.
func AblationAggregation() (Result, error) {
	const blocks, size = 16, 512
	cheap, err := BlocksOneWay("tcp", blocks, size, core.SendCheaper, core.ReceiveCheaper)
	if err != nil {
		return Result{}, err
	}
	express, err := BlocksOneWay("tcp", blocks, size, core.SendCheaper, core.ReceiveExpress)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:    "abl-aggregation",
		Title: "Ablation: BMM aggregation (16×512 B over TCP)",
		Series: []Series{
			{Name: "receive_CHEAPER (aggregated)", Points: []Point{{Size: blocks * size, OneWay: cheap}}},
			{Name: "receive_EXPRESS (flushed per block)", Points: []Point{{Size: blocks * size, OneWay: express}}},
		},
		Anchors: []Anchor{
			{Name: "express/cheaper cost ratio", Paper: 1.6, Measured: float64(express) / float64(cheap), Unit: "× (one kernel send amortized over 16 blocks)"},
		},
		Notes: "the §2.2 advice: extract data EXPRESS only when necessary",
	}, nil
}

// AblationExpress measures the same effect on a SAN: EXPRESS on the SISCI
// short path costs little, which is why headers ride it by default.
func AblationExpress() (Result, error) {
	const blocks, size = 8, 64
	cheap, err := BlocksOneWay("sisci", blocks, size, core.SendCheaper, core.ReceiveCheaper)
	if err != nil {
		return Result{}, err
	}
	express, err := BlocksOneWay("sisci", blocks, size, core.SendCheaper, core.ReceiveExpress)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:    "abl-express",
		Title: "Ablation: receive_EXPRESS cost on SISCI (8×64 B)",
		Series: []Series{
			{Name: "receive_CHEAPER", Points: []Point{{Size: blocks * size, OneWay: cheap}}},
			{Name: "receive_EXPRESS", Points: []Point{{Size: blocks * size, OneWay: express}}},
		},
		Anchors: []Anchor{
			{Name: "express/cheaper cost ratio", Paper: 2, Measured: float64(express) / float64(cheap), Unit: "× ('may be available for free' on some protocols — cheap on SCI)"},
		},
		Notes: "per-block PIO writes vs one aggregated slot",
	}, nil
}

// AblationMTU sweeps the forwarding packet size including a too-small one,
// quantifying the §6.2.1 choice of 16 kB. Each packet size is a series of
// one 2 MB point, so its bandwidth is the stream's.
func AblationMTU() (Result, error) {
	var series []Series
	for _, mtu := range []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		vcs, err := HetVC(NextName("abl-mtu"), mtu, 1, 0, nil, false, nil, nil)
		if err != nil {
			return Result{}, err
		}
		t, err := ForwardedStream(vcs, 0, 4, 2<<20)
		CloseVCs(vcs)
		if err != nil {
			return Result{}, err
		}
		series = append(series, Series{Name: "packets of " + sizeLabel(mtu), Points: []Point{{Size: 2 << 20, OneWay: t}}})
	}
	return Result{
		ID:     "abl-mtu",
		Title:  "Ablation: forwarding MTU sweep (SCI→Myrinet, 2 MB messages)",
		Series: series,
		Notes:  "small packets drown in the ≈50 µs per-step overhead; large ones amortize it until the PCI floor takes over",
	}, nil
}

// AblationGatewayCopy quantifies the §6.1 copy-avoidance hand-off.
func AblationGatewayCopy() (Result, error) {
	// Measured in the Myrinet→SCI direction, where the send thread is the
	// bottleneck; in the other direction the copy hides under the PCI
	// floor (the bus, not the CPU, paces the pipeline there).
	run := func(force bool) (vclock.Time, error) {
		vcs, err := HetVC(NextName("abl-copy"), 16<<10, 1, 0, nil, false, nil, func(s *fwd.Spec) { s.ForceGatewayCopy = force })
		if err != nil {
			return 0, err
		}
		defer CloseVCs(vcs)
		return ForwardedStream(vcs, 4, 0, 2<<20)
	}
	fast, err := run(false)
	if err != nil {
		return Result{}, err
	}
	slow, err := run(true)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:    "abl-gwcopy",
		Title: "Ablation: gateway static-buffer hand-off (§6.1)",
		Series: []Series{
			{Name: "zero-copy hand-off", Points: []Point{{Size: 2 << 20, OneWay: fast}}},
			{Name: "forced extra copy", Points: []Point{{Size: 2 << 20, OneWay: slow}}},
		},
		Anchors: []Anchor{
			{Name: "hand-off speedup", Paper: 1.1, Measured: float64(slow) / float64(fast), Unit: "× ('avoiding copies is mandatory')"},
		},
	}, nil
}

// AblationBandwidthControl measures the §7 future-work extension: pacing
// the gateway's incoming Myrinet flow to protect the outgoing SCI PIO
// stream from DMA starvation. Each throttle rate is a series of one 2 MB
// point.
func AblationBandwidthControl() (Result, error) {
	var series []Series
	type cfg struct {
		label string
		rate  float64
	}
	var anchors []Anchor
	for _, c := range []cfg{{"off", 0}, {"45 MB/s", 45}, {"30 MB/s", 30}, {"15 MB/s", 15}} {
		vcs, err := HetVC(NextName("abl-bwctl"), 128<<10, 1, 0, nil, false, nil, func(sp *fwd.Spec) { sp.BandwidthControl = c.rate })
		if err != nil {
			return Result{}, err
		}
		t, err := ForwardedStream(vcs, 4, 0, 2<<20)
		CloseVCs(vcs)
		if err != nil {
			return Result{}, err
		}
		bw := vclock.MBps(2<<20, t)
		anchors = append(anchors, Anchor{Name: "throttle " + c.label, Measured: bw, Paper: 34, Unit: "MB/s (paper baseline ≈34–36.5)"})
		series = append(series, Series{Name: "throttle " + c.label, Points: []Point{{Size: 2 << 20, OneWay: t}}})
	}
	return Result{
		ID:      "abl-bwctl",
		Title:   "Extension: gateway bandwidth control (§7 future work; Myrinet→SCI, 2 MB messages, 128 kB packets)",
		Series:  series,
		Anchors: anchors,
		Notes:   "a well-chosen incoming cap breaks the DMA/PIO overlap and beats the unthrottled pipeline",
	}, nil
}

// AllAblations runs every ablation.
func AllAblations() ([]Result, error) {
	var out []Result
	fns := []func() (Result, error){
		AblationMadIvsII, AblationDualBuffer, AblationDMA, AblationAggregation,
		AblationExpress, AblationMTU, AblationGatewayCopy,
		AblationBandwidthControl, AblationPolling,
	}
	for _, f := range fns {
		r, err := f()
		if err != nil {
			return nil, fmt.Errorf("bench: ablation: %w", err)
		}
		out = append(out, r)
	}
	return out, nil
}

// AblationPolling measures the §7 Marcel integration: the three network
// interaction mechanisms on a server receiving sparse requests — the
// latency the mechanism adds versus the CPU it burns while waiting.
func AblationPolling() (Result, error) {
	const msgs = 10
	gap := vclock.Micros(150) // sparse arrivals: the receiver waits

	run := func(pol marcel.Policy) (marcel.Stats, error) {
		_, chans, err := TwoNodes("sisci", nil)
		if err != nil {
			return marcel.Stats{}, err
		}
		errc := make(chan error, 1)
		go func() {
			a := vclock.NewActor("req-src")
			for i := 0; i < msgs; i++ {
				a.Advance(gap) // request inter-arrival time
				err := chans[0].Send(a, 1, func(conn *core.Connection) error {
					return conn.Pack([]byte{byte(i)}, core.SendCheaper, core.ReceiveExpress)
				})
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		l := marcel.NewListener(chans[1], pol, marcel.Config{})
		r := vclock.NewActor("server")
		for i := 0; i < msgs; i++ {
			buf := make([]byte, 1)
			err := l.Serve(r, func(conn *marcel.Conn) error {
				return conn.Unpack(buf, core.SendCheaper, core.ReceiveExpress)
			})
			if err != nil {
				return marcel.Stats{}, err
			}
		}
		if err := <-errc; err != nil {
			return marcel.Stats{}, err
		}
		return l.Stats(), nil
	}

	var anchors []Anchor
	stats := map[marcel.Policy]marcel.Stats{}
	for _, pol := range []marcel.Policy{marcel.Polling, marcel.Interrupt, marcel.Adaptive} {
		st, err := run(pol)
		if err != nil {
			return Result{}, err
		}
		stats[pol] = st
		anchors = append(anchors,
			Anchor{Name: pol.String() + " added latency", Measured: st.AddedLat.Microseconds() / msgs, Unit: "µs/msg"},
			Anchor{Name: pol.String() + " CPU burnt", Measured: st.CPUBusy.Microseconds() / msgs, Unit: "µs/msg"},
		)
	}
	return Result{
		ID:      "abl-polling",
		Title:   "Extension: Marcel adaptive polling/interruption (§7 future work)",
		Anchors: anchors,
		Notes: fmt.Sprintf(
			"adaptive: latency like interrupt when idle, CPU capped at the %v spin window (poll burnt %v/msg here)",
			marcel.DefaultConfig().Spin, stats[marcel.Polling].CPUBusy/msgs),
	}, nil
}

// AblationMadIvsII reproduces the paper's §1 motivation: Madeleine I's
// message-passing-oriented internals versus Madeleine II's multi-TM core,
// both over SISCI/SCI.
func AblationMadIvsII() (Result, error) {
	v1OneWay := func(n int) (vclock.Time, error) {
		w := simnet.NewWorld(2)
		w.Node(0).AddAdapter(sisci.Network)
		w.Node(1).AddAdapter(sisci.Network)
		chans, err := madv1.New(w, NextName("v1"))
		if err != nil {
			return 0, err
		}
		s, r := vclock.NewActor("s"), vclock.NewActor("r")
		errc := make(chan error, 1)
		go func() {
			m, err := chans[0].BeginPacking(s, 1)
			if err != nil {
				errc <- err
				return
			}
			m.Pack(make([]byte, n))
			errc <- m.EndPacking()
		}()
		in, err := chans[1].BeginUnpacking(r, 0)
		if err != nil {
			return 0, err
		}
		buf := make([]byte, n)
		if err := in.Unpack(buf); err != nil {
			return 0, err
		}
		if err := in.EndUnpacking(); err != nil {
			return 0, err
		}
		if err := <-errc; err != nil {
			return 0, err
		}
		return r.Now(), nil
	}
	v1 := Series{Name: "Madeleine I (message-passing internals)"}
	for _, n := range []int{4, 8 << 10, 256 << 10, 2 << 20} {
		t, err := v1OneWay(n)
		if err != nil {
			return Result{}, err
		}
		v1.Points = append(v1.Points, Point{Size: n, OneWay: t})
	}
	_, chans, err := TwoNodes("sisci", nil)
	if err != nil {
		return Result{}, err
	}
	v2, err := Sweep("Madeleine II", chans, 0, 1, []int{4, 8 << 10, 256 << 10, 2 << 20})
	if err != nil {
		return Result{}, err
	}
	v1b, _ := v1.At(2 << 20)
	v2b, _ := v2.At(2 << 20)
	v1l, _ := v1.At(4)
	v2l, _ := v2.At(4)
	return Result{
		ID:     "abl-madv1",
		Title:  "Motivation: Madeleine I vs Madeleine II over SISCI/SCI (§1)",
		Series: []Series{v1, v2},
		Anchors: []Anchor{
			{Name: "Mad I 4 B latency", Paper: 3.9, Measured: v1l.OneWay.Microseconds(), Unit: "µs (paper value is Mad II's)"},
			{Name: "Mad II 4 B latency", Paper: 3.9, Measured: v2l.OneWay.Microseconds(), Unit: "µs"},
			{Name: "bandwidth gain at 2 MB", Paper: 1.5, Measured: v2b.Bandwidth() / v1b.Bandwidth(), Unit: "× (Mad II over Mad I)"},
		},
		Notes: "the support of non message-passing interfaces 'introduced some unnecessary overhead' — quantified",
	}, nil
}
