package bench

import (
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/mpi"
	"madeleine2/internal/vclock"
)

// Fig4 reproduces "Latency and bandwidth over SISCI/SCI": Madeleine II's
// latency panel for small messages and bandwidth panel up to 2 MB, with
// the dual-buffering knee at 8 kB and the 3.9 µs / 82 MB/s anchors.
func Fig4() (Result, error) {
	_, chans, err := TwoNodes("sisci", nil)
	if err != nil {
		return Result{}, err
	}
	lat, err := Sweep("MadII/SISCI latency", chans, 0, 1, LatSizes)
	if err != nil {
		return Result{}, err
	}
	bw, err := Sweep("MadII/SISCI bandwidth", chans, 0, 1, BwSizes)
	if err != nil {
		return Result{}, err
	}
	p8k, _ := bw.At(8 << 10)
	p2m, _ := bw.At(2 << 20)
	return Result{
		ID:     "fig4",
		Title:  "Latency and bandwidth over SISCI/SCI",
		Series: []Series{lat, bw},
		Anchors: []Anchor{
			{Name: "minimal latency", Paper: 3.9, Measured: lat.Points[0].OneWay.Microseconds(), Unit: "µs"},
			{Name: "bandwidth at 8 kB", Paper: 58, Measured: p8k.Bandwidth(), Unit: "MB/s"},
			{Name: "peak bandwidth", Paper: 82, Measured: p2m.Bandwidth(), Unit: "MB/s"},
		},
		Notes: "adaptive dual-buffering activates at 8 kB (§5.2.1)",
	}, nil
}

// Fig5 reproduces "Latency and bandwidth over BIP/Myrinet", including the
// raw BIP reference curve (5 µs / 126 MB/s vs Madeleine's 7 µs / 122 MB/s).
func Fig5() (Result, error) {
	_, chans, err := TwoNodes("bip", nil)
	if err != nil {
		return Result{}, err
	}
	lat, err := Sweep("MadII/BIP latency", chans, 0, 1, LatSizes)
	if err != nil {
		return Result{}, err
	}
	bw, err := Sweep("MadII/BIP bandwidth", chans, 0, 1, BwSizes)
	if err != nil {
		return Result{}, err
	}
	raw := Series{Name: "raw BIP"}
	for _, n := range BwSizes {
		t, err := RawBIPPingPong(n, 5)
		if err != nil {
			return Result{}, err
		}
		raw.Points = append(raw.Points, Point{Size: n, OneWay: t})
	}
	rawLat, err := RawBIPPingPong(4, 5)
	if err != nil {
		return Result{}, err
	}
	p2m, _ := bw.At(2 << 20)
	r2m, _ := raw.At(2 << 20)
	return Result{
		ID:     "fig5",
		Title:  "Latency and bandwidth over BIP/Myrinet",
		Series: []Series{lat, bw, raw},
		Anchors: []Anchor{
			{Name: "minimal latency", Paper: 7, Measured: lat.Points[0].OneWay.Microseconds(), Unit: "µs"},
			{Name: "peak bandwidth", Paper: 122, Measured: p2m.Bandwidth(), Unit: "MB/s"},
			{Name: "raw BIP latency", Paper: 5, Measured: rawLat.Microseconds(), Unit: "µs"},
			{Name: "raw BIP bandwidth", Paper: 126, Measured: r2m.Bandwidth(), Unit: "MB/s"},
		},
		Notes: "short/long message boundary at 1 kB (§5.2.2)",
	}, nil
}

// Fig6 reproduces "Comparison of various MPI implementations over SCI":
// MPICH/MadII (ch_mad) vs the modeled ScaMPI and SCI-MPICH baselines, with
// the raw Madeleine II curve as the upper reference.
func Fig6() (Result, error) {
	chmad := Series{Name: "MPICH/MadII"}
	for _, n := range BwSizes {
		t, err := MPIPingPong("sisci", n)
		if err != nil {
			return Result{}, err
		}
		chmad.Points = append(chmad.Points, Point{Size: n, OneWay: t})
	}
	_, chans, err := TwoNodes("sisci", nil)
	if err != nil {
		return Result{}, err
	}
	rawMad, err := Sweep("MadII/SISCI", chans, 0, 1, BwSizes)
	if err != nil {
		return Result{}, err
	}
	series := []Series{chmad, rawMad}
	for _, b := range mpi.Baselines() {
		s := Series{Name: b.Name + " (modeled)"}
		for _, n := range BwSizes {
			s.Points = append(s.Points, Point{Size: n, OneWay: b.OneWay(n)})
		}
		series = append(series, s)
	}
	latT, err := MPIPingPong("sisci", 4)
	if err != nil {
		return Result{}, err
	}
	c32, _ := chmad.At(32 << 10)
	c1m, _ := chmad.At(1 << 20)
	return Result{
		ID:     "fig6",
		Title:  "Comparison of various MPI implementations over SCI",
		Series: series,
		Anchors: []Anchor{
			{Name: "ch_mad latency", Paper: 10, Measured: latT.Microseconds(), Unit: "µs (approx; paper: 'does not compare favorably')"},
			{Name: "ch_mad at 32 kB", Paper: 70, Measured: c32.Bandwidth(), Unit: "MB/s (best from 32 kB up)"},
			{Name: "ch_mad at 1 MB", Paper: 78, Measured: c1m.Bandwidth(), Unit: "MB/s (most of Madeleine's bandwidth)"},
		},
		Notes: "ch_mad provides the best bandwidth for messages of 32 kB and above (§5.3.1)",
	}, nil
}

// Fig7 reproduces "Nexus/Madeleine II performance": RSR latency and
// bandwidth over Madeleine/TCP and Madeleine/SISCI.
func Fig7() (Result, error) {
	var series []Series
	var sciLat vclock.Time
	for _, drv := range []string{"sisci", "tcp"} {
		s := Series{Name: "Nexus/MadII/" + drv}
		for _, n := range append([]int{4}, BwSizes...) {
			t, err := NexusRSREcho(drv, n)
			if err != nil {
				return Result{}, err
			}
			s.Points = append(s.Points, Point{Size: n, OneWay: t})
		}
		if drv == "sisci" {
			sciLat = s.Points[0].OneWay
		}
		series = append(series, s)
	}
	big, _ := series[0].At(2 << 20)
	return Result{
		ID:     "fig7",
		Title:  "Nexus/Madeleine II performance",
		Series: series,
		Anchors: []Anchor{
			{Name: "RSR latency over SISCI", Paper: 25, Measured: sciLat.Microseconds(), Unit: "µs (paper: below 25)"},
			{Name: "RSR bandwidth over SISCI", Paper: 78, Measured: big.Bandwidth(), Unit: "MB/s (approaches Madeleine's)"},
		},
		Notes: "TCP curve shows why Nexus alone is unattractive at cluster scale (§5.3.2)",
	}, nil
}

// fwdMTUs is the packet-size sweep of the forwarding figures.
var fwdMTUs = []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}

// fwdMsgSizes is the message-size axis of Fig. 10/11.
var fwdMsgSizes = []int{32 << 10, 128 << 10, 512 << 10, 1 << 20, 2 << 20}

// forwardingFigure builds one of the two forwarding results.
func forwardingFigure(id, title string, sciToMyri bool, anchors []Anchor) (Result, error) {
	var series []Series
	asym := map[int]float64{}
	for _, mtu := range fwdMTUs {
		vcs, err := HetVC(NextName(id), mtu, 1, 0, nil, false, nil, nil)
		if err != nil {
			return Result{}, err
		}
		s := Series{Name: fmt.Sprintf("packets of %d kB", mtu>>10)}
		src, dst := 0, 4
		if !sciToMyri {
			src, dst = 4, 0
		}
		for _, msg := range fwdMsgSizes {
			t, err := ForwardedStream(vcs, src, dst, msg)
			if err != nil {
				CloseVCs(vcs)
				return Result{}, err
			}
			s.Points = append(s.Points, Point{Size: msg, OneWay: t})
		}
		CloseVCs(vcs)
		asym[mtu] = s.Points[len(s.Points)-1].Bandwidth()
		series = append(series, s)
	}
	for i := range anchors {
		switch anchors[i].Name {
		case "8 kB packets":
			anchors[i].Measured = asym[8<<10]
		case "128 kB packets":
			anchors[i].Measured = asym[128<<10]
		}
	}
	return Result{ID: id, Title: title, Series: series, Anchors: anchors,
		Notes: fmt.Sprintf("gateway step overhead %s; PCI aggregate cap %.0f MB/s; PIO penalty ×%.2f under DMA (§6.2)",
			model.GatewayStepOverhead, model.DefaultPCI().AggregateCap, model.DefaultPCI().PIOPenalty)}, nil
}

// Fig10 reproduces "Forwarding bandwidth: from SISCI/SCI to BIP/Myrinet".
func Fig10() (Result, error) {
	return forwardingFigure("fig10", "Forwarding bandwidth: SISCI/SCI to BIP/Myrinet", true, []Anchor{
		{Name: "8 kB packets", Paper: 36.5, Unit: "MB/s"},
		{Name: "128 kB packets", Paper: 49.5, Unit: "MB/s"},
	})
}

// Fig11 reproduces "Forwarding bandwidth: from BIP/Myrinet to SISCI/SCI".
func Fig11() (Result, error) {
	return forwardingFigure("fig11", "Forwarding bandwidth: BIP/Myrinet to SISCI/SCI", false, []Anchor{
		{Name: "8 kB packets", Paper: 29, Unit: "MB/s"},
		{Name: "128 kB packets", Paper: 36.5, Unit: "MB/s (paper: remains under 36.5)"},
	})
}

// Crossover reproduces the §6.2.1 packet-size analysis: at 16 kB both
// networks deliver ≈60 MB/s in ≈250 µs, the argument behind the 16 kB MTU.
func Crossover() (Result, error) {
	_, sci, err := TwoNodes("sisci", nil)
	if err != nil {
		return Result{}, err
	}
	_, myri, err := TwoNodes("bip", nil)
	if err != nil {
		return Result{}, err
	}
	tS, err := PingPong(sci, 0, 1, 16<<10, 5)
	if err != nil {
		return Result{}, err
	}
	tM, err := PingPong(myri, 0, 1, 16<<10, 5)
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:    "crossover",
		Title: "§6.2.1 packet-size analysis (16 kB)",
		Series: []Series{
			{Name: "MadII/SISCI", Points: []Point{{Size: 16 << 10, OneWay: tS}}},
			{Name: "MadII/BIP", Points: []Point{{Size: 16 << 10, OneWay: tM}}},
		},
		Anchors: []Anchor{
			{Name: "SISCI 16 kB one-way", Paper: 250, Measured: tS.Microseconds(), Unit: "µs"},
			{Name: "BIP 16 kB one-way", Paper: 250, Measured: tM.Microseconds(), Unit: "µs"},
		},
		Notes: "both networks transfer 16 kB in ≈250 µs at ≈60 MB/s → MTU 16 kB",
	}, nil
}

// AllFigures runs every reproduced table and figure in paper order.
func AllFigures() ([]Result, error) {
	var out []Result
	for _, f := range []func() (Result, error){Fig4, Fig5, Fig6, Fig7, Crossover, Fig10, Fig11} {
		r, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
