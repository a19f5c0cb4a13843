package bench

import (
	"strings"
	"testing"

	"madeleine2/internal/vclock"
)

func TestPingPongSteadyState(t *testing.T) {
	_, chans, err := TwoNodes("sisci", nil)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := PingPong(chans, 0, 1, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if us := lat.Microseconds(); us < 3.5 || us > 4.3 {
		t.Errorf("steady 4B one-way = %.2f µs, want ≈3.9", us)
	}
	// A second sweep on the same warm channel must agree (steady state).
	lat2, err := PingPong(chans, 0, 1, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lat != lat2 {
		t.Errorf("steady measurement not reproducible: %v vs %v", lat, lat2)
	}
}

func TestSweepShapes(t *testing.T) {
	_, chans, err := TwoNodes("bip", nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sweep("bip", chans, 0, 1, []int{64, 8 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].Bandwidth() >= s.Points[2].Bandwidth() {
		t.Error("bandwidth must grow with size on BIP")
	}
	if _, ok := s.At(12345); ok {
		t.Error("At must miss absent sizes")
	}
}

func TestRawBIPAnchors(t *testing.T) {
	lat, err := RawBIPPingPong(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if us := lat.Microseconds(); us < 4.8 || us > 5.3 {
		t.Errorf("raw BIP latency = %.2f µs, want 5", us)
	}
	big, err := RawBIPPingPong(4<<20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if bw := vclock.MBps(4<<20, big); bw < 120 || bw > 126.5 {
		t.Errorf("raw BIP bandwidth = %.1f MB/s, want ≈126", bw)
	}
}

func TestFig4Anchors(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.Anchors {
		if d := a.Delta(); d < -0.15 || d > 0.15 {
			t.Errorf("fig4 anchor %q off by %+.1f%% (paper %.1f, measured %.1f)", a.Name, d*100, a.Paper, a.Measured)
		}
	}
	if !strings.Contains(r.Table(), "MadII/SISCI") {
		t.Error("table must label the series")
	}
}

func TestFig5Anchors(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.Anchors {
		if d := a.Delta(); d < -0.15 || d > 0.15 {
			t.Errorf("fig5 anchor %q off by %+.1f%%", a.Name, d*100)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// ch_mad leads every baseline from 32 kB up; trails ScaMPI small.
	var chmad, scampi Series
	for _, s := range r.Series {
		switch {
		case strings.HasPrefix(s.Name, "MPICH"):
			chmad = s
		case strings.HasPrefix(s.Name, "ScaMPI"):
			scampi = s
		}
	}
	for _, n := range []int{32 << 10, 256 << 10, 1 << 20} {
		c, _ := chmad.At(n)
		s, _ := scampi.At(n)
		if c.Bandwidth() <= s.Bandwidth() {
			t.Errorf("at %d: ch_mad %.1f must beat ScaMPI %.1f", n, c.Bandwidth(), s.Bandwidth())
		}
	}
	c, _ := chmad.At(1024)
	s, _ := scampi.At(1024)
	if c.Bandwidth() >= s.Bandwidth() {
		t.Errorf("at 1 kB: ch_mad %.1f should trail ScaMPI %.1f", c.Bandwidth(), s.Bandwidth())
	}
}

func TestFig7Anchors(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	lat := r.Anchors[0].Measured
	if lat >= 25 || lat < 12 {
		t.Errorf("Nexus/SISCI latency = %.1f µs, want below 25", lat)
	}
}

func TestCrossoverAnchor(t *testing.T) {
	r, err := Crossover()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.Anchors {
		if d := a.Delta(); d < -0.2 || d > 0.2 {
			t.Errorf("crossover anchor %q off by %+.1f%%", a.Name, d*100)
		}
	}
}

func TestFig10Fig11Anchors(t *testing.T) {
	r10, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r10.Anchors {
		if d := a.Delta(); d < -0.15 || d > 0.15 {
			t.Errorf("fig10 anchor %q off by %+.1f%% (measured %.1f)", a.Name, d*100, a.Measured)
		}
	}
	r11, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	// 8 kB anchor within 15%; asymptote must stay under 36.5.
	if d := r11.Anchors[0].Delta(); d < -0.15 || d > 0.15 {
		t.Errorf("fig11 8kB anchor off by %+.1f%%", d*100)
	}
	if r11.Anchors[1].Measured >= 36.5 {
		t.Errorf("fig11 asymptote %.1f must remain under 36.5", r11.Anchors[1].Measured)
	}
	// Every Fig. 11 point lies below its Fig. 10 counterpart.
	for i, s11 := range r11.Series {
		for j, p := range s11.Points {
			if p10 := r10.Series[i].Points[j]; p.Bandwidth() >= p10.Bandwidth() {
				t.Errorf("series %d point %d: Myri→SCI %.1f not below SCI→Myri %.1f",
					i, j, p.Bandwidth(), p10.Bandwidth())
			}
		}
	}
}

func TestAblationsRun(t *testing.T) {
	rs, err := AllAblations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 9 {
		t.Fatalf("ablations = %d", len(rs))
	}
	byID := map[string]Result{}
	for _, r := range rs {
		byID[r.ID] = r
		if r.Table() == "" || r.Markdown() == "" {
			t.Errorf("%s renders empty", r.ID)
		}
	}
	// Madeleine II must dominate Madeleine I on SCI at every size.
	m := byID["abl-madv1"]
	for i, p1 := range m.Series[0].Points {
		if p2 := m.Series[1].Points[i]; p1.OneWay <= p2.OneWay {
			t.Errorf("Mad I (%v) must be slower than Mad II (%v) at %d bytes",
				p1.OneWay, p2.OneWay, p1.Size)
		}
	}
	// Dual-buffering must win at 2 MB.
	d := byID["abl-dual"]
	on, _ := d.Series[0].At(2 << 20)
	off, _ := d.Series[1].At(2 << 20)
	if on.Bandwidth() <= off.Bandwidth() {
		t.Error("dual-buffering must beat plain PIO at 2 MB")
	}
	// The gateway copy ablation must show a slowdown.
	if g := byID["abl-gwcopy"]; g.Anchors[0].Measured <= 1.0 {
		t.Error("forced gateway copy must cost something")
	}
	// Bandwidth control: some throttle beats "off", over-throttling loses.
	b := byID["abl-bwctl"]
	off2 := b.Anchors[0].Measured
	best := off2
	for _, a := range b.Anchors[1:] {
		if a.Measured > best {
			best = a.Measured
		}
	}
	if best <= off2 {
		t.Error("a throttle setting must beat the unthrottled gateway")
	}
	if last := b.Anchors[len(b.Anchors)-1].Measured; last >= off2 {
		t.Error("over-throttling must lose")
	}
	// Polling trade-off: adaptive must burn less CPU than polling and add
	// less latency than... at least match the interrupt path.
	p := byID["abl-polling"]
	get := func(name string) float64 {
		for _, a := range p.Anchors {
			if a.Name == name {
				return a.Measured
			}
		}
		t.Fatalf("missing anchor %q", name)
		return 0
	}
	if get("adaptive CPU burnt") >= get("polling CPU burnt") {
		t.Error("adaptive must burn less CPU than polling")
	}
	if get("adaptive added latency") > get("interrupt added latency") {
		t.Error("adaptive latency must not exceed the interrupt path")
	}
	if get("polling added latency") >= get("interrupt added latency") {
		t.Error("polling must have the lowest added latency")
	}
}

func TestFormatters(t *testing.T) {
	r := Result{
		ID:    "x",
		Title: "T",
		Series: []Series{{Name: "s", Points: []Point{
			{Size: 1024, OneWay: vclock.Micros(10)},
			{Size: 1 << 20, OneWay: vclock.Micros(10000)},
		}}},
		Anchors: []Anchor{{Name: "a", Paper: 10, Measured: 11, Unit: "MB/s"}},
		Notes:   "n",
	}
	tb := r.Table()
	for _, want := range []string{"== X: T ==", "1 kB", "1 MB", "+10.0%", "note: n"} {
		if !strings.Contains(tb, want) {
			t.Errorf("table missing %q in:\n%s", want, tb)
		}
	}
	md := r.Markdown()
	for _, want := range []string{"### X — T", "| a | 10.0 | 11.0 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q in:\n%s", want, md)
		}
	}
	if sizeLabel(100) != "100 B" || sizeLabel(2048) != "2 kB" || sizeLabel(3<<20) != "3 MB" {
		t.Error("sizeLabel broken")
	}
	if trunc("abcdef", 4) != "abc…" {
		t.Error("trunc broken")
	}
}

func TestPlot(t *testing.T) {
	r := Result{
		Title: "Plot test",
		Series: []Series{
			{Name: "fast", Points: []Point{
				{Size: 1024, OneWay: vclock.Micros(20)},
				{Size: 64 << 10, OneWay: vclock.Micros(800)},
				{Size: 1 << 20, OneWay: vclock.Micros(12800)},
			}},
			{Name: "slow", Points: []Point{
				{Size: 1024, OneWay: vclock.Micros(100)},
				{Size: 1 << 20, OneWay: vclock.Micros(100000)},
			}},
		},
	}
	out := r.Plot(60, 12)
	for _, want := range []string{"Plot test", "o = fast", "x = slow", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 14 {
		t.Errorf("plot too short: %d lines", len(lines))
	}
	// Empty and degenerate inputs render nothing but do not panic.
	if (Result{}).Plot(60, 12) != "" {
		t.Error("empty result must render empty")
	}
	zero := Result{Series: []Series{{Name: "z", Points: []Point{{Size: 0, OneWay: 1}}}}}
	if zero.Plot(60, 12) != "" {
		t.Error("degenerate sizes must render empty")
	}
}
