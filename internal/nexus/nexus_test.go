package nexus

import (
	"bytes"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// procs builds two attached Nexus processes over the given driver.
func procs(t *testing.T, driver string) (*Process, *Process) {
	t.Helper()
	w := simnet.NewWorld(2)
	for i := 0; i < 2; i++ {
		w.Node(i).AddAdapter(sisci.Network)
		w.Node(i).AddAdapter(tcpnet.Network)
	}
	sess := core.NewSession(w)
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "nx-" + driver, Driver: driver})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := Attach(chans[0]), Attach(chans[1])
	t.Cleanup(func() { p0.Close(); p1.Close() })
	return p0, p1
}

func TestRSRRoundTrip(t *testing.T) {
	p0, p1 := procs(t, "sisci")
	got := make(chan string, 1)
	p1.Register(1, func(a *vclock.Actor, from int, buf *Buffer) {
		s, err := buf.GetString()
		if err != nil || from != 0 {
			t.Errorf("handler: %q from %d, %v", s, from, err)
		}
		got <- s
	})
	sp, err := p0.Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Remote() != 1 {
		t.Fatal("startpoint remote wrong")
	}
	a := vclock.NewActor("app0")
	if err := sp.RSR(a, 1, NewBuffer().PutString("invoke me")); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s != "invoke me" {
		t.Errorf("handler got %q", s)
	}
	// The sender returned and the dispatcher ended the message before it
	// ran the handler: nothing is left open.
	if err := p0.chans[0].Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestRSREcho(t *testing.T) {
	// The Fig. 7 measurement pattern: an echo service; the round trip
	// divides into the one-way RSR latency.
	p0, p1 := procs(t, "sisci")
	const payload = 4

	// p1: echo handler replies on its own startpoint back to 0.
	sp10, err := p1.Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	p1.Register(2, func(a *vclock.Actor, from int, buf *Buffer) {
		data, _ := buf.GetBytes()
		if err := sp10.RSR(a, 3, NewBuffer().PutBytes(data)); err != nil {
			t.Error(err)
		}
	})
	done := make(chan vclock.Time, 1)
	p0.Register(3, func(a *vclock.Actor, from int, buf *Buffer) {
		done <- a.Now()
	})
	sp01, err := p0.Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	a := vclock.NewActor("app0")
	if err := sp01.RSR(a, 2, NewBuffer().PutBytes(make([]byte, payload))); err != nil {
		t.Fatal(err)
	}
	rtt := <-done
	lat := (rtt / 2).Microseconds()
	// Fig. 7: "minimal latency below 25 µs" over SISCI, well above raw
	// Madeleine's 3.9 µs.
	if lat >= 25 || lat < 15 {
		t.Errorf("Nexus/Mad/SISCI RSR latency = %.1f µs, want 15–25", lat)
	}
}

func TestRSROverTCPIsSlower(t *testing.T) {
	latency := func(driver string) vclock.Time {
		p0, p1 := procs(t, driver)
		done := make(chan vclock.Time, 1)
		p1.Register(9, func(a *vclock.Actor, from int, buf *Buffer) {
			done <- a.Now()
		})
		sp, err := p0.Bind(1)
		if err != nil {
			t.Fatal(err)
		}
		a := vclock.NewActor("app")
		if err := sp.RSR(a, 9, NewBuffer().PutUint32(1)); err != nil {
			t.Fatal(err)
		}
		return <-done
	}
	sci, tcp := latency("sisci"), latency("tcp")
	if sci >= tcp {
		t.Errorf("Nexus over SISCI (%v) must beat Nexus over TCP (%v) — the Fig. 7 gap", sci, tcp)
	}
	if tcp < vclock.Micros(60) {
		t.Errorf("Nexus over TCP = %v, implausibly below the kernel stack cost", tcp)
	}
}

func TestBufferCodec(t *testing.T) {
	b := NewBuffer().PutUint32(42).PutFloat64(3.5).PutString("hi").PutBytes([]byte{1, 2})
	r := NewBufferFrom(b.Bytes())
	if v, err := r.GetUint32(); err != nil || v != 42 {
		t.Errorf("GetUint32 = %d, %v", v, err)
	}
	if v, err := r.GetFloat64(); err != nil || v != 3.5 {
		t.Errorf("GetFloat64 = %g, %v", v, err)
	}
	if v, err := r.GetString(); err != nil || v != "hi" {
		t.Errorf("GetString = %q, %v", v, err)
	}
	if v, err := r.GetBytes(); err != nil || !bytes.Equal(v, []byte{1, 2}) {
		t.Errorf("GetBytes = %v, %v", v, err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
	if _, err := r.GetUint32(); err == nil {
		t.Error("underflow must be reported")
	}
}

func TestBindErrors(t *testing.T) {
	p0, _ := procs(t, "tcp")
	if _, err := p0.Bind(0); err == nil {
		t.Error("self-bind must fail")
	}
	if _, err := p0.Bind(9); err == nil {
		t.Error("binding an unreachable rank must fail")
	}
}

func TestLargeRSRBandwidth(t *testing.T) {
	// Fig. 7's bandwidth panel: large RSRs over SISCI ride Madeleine's
	// dual-buffering and land near its asymptote.
	p0, p1 := procs(t, "sisci")
	const n = 1 << 20
	done := make(chan vclock.Time, 1)
	p1.Register(4, func(a *vclock.Actor, from int, buf *Buffer) {
		data, err := buf.GetBytes()
		if err != nil || len(data) != n {
			t.Errorf("handler: %d bytes, %v", len(data), err)
		}
		done <- a.Now()
	})
	sp, _ := p0.Bind(1)
	a := vclock.NewActor("app")
	if err := sp.RSR(a, 4, NewBuffer().PutBytes(make([]byte, n))); err != nil {
		t.Fatal(err)
	}
	bw := vclock.MBps(n, <-done)
	if bw < 70 || bw > 82 {
		t.Errorf("large RSR bandwidth = %.1f MB/s, want close to Madeleine's 82", bw)
	}
}

func TestMultiprotocolSelection(t *testing.T) {
	// The §5.3.2 Globus scenario: nodes 0 and 1 form an SCI cluster; node
	// 2 is reachable over TCP only (the "wide area" peer). One Nexus
	// context per node holds both protocols; startpoints pick per
	// destination.
	w := simnet.NewWorld(3)
	for i := 0; i < 3; i++ {
		w.Node(i).AddAdapter(tcpnet.Network)
	}
	w.Node(0).AddAdapter(sisci.Network)
	w.Node(1).AddAdapter(sisci.Network)
	sess := core.NewSession(w)
	tcp, err := sess.NewChannel(core.ChannelSpec{Name: "wan", Driver: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	sci, err := sess.NewChannel(core.ChannelSpec{Name: "san", Driver: "sisci"})
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*Process, 3)
	for i := 0; i < 3; i++ {
		if i <= 1 {
			procs[i] = AttachMulti(tcp[i], sci[i])
		} else {
			procs[i] = AttachMulti(tcp[i])
		}
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Close()
		}
	})

	// Cluster-local startpoint rides Madeleine/SISCI...
	local, err := procs[0].Bind(1)
	if err != nil {
		t.Fatal(err)
	}
	if local.Protocol() != "sisci" {
		t.Errorf("local startpoint uses %q, want sisci", local.Protocol())
	}
	// ...the WAN startpoint falls back to TCP.
	wan, err := procs[0].Bind(2)
	if err != nil {
		t.Fatal(err)
	}
	if wan.Protocol() != "tcp" {
		t.Errorf("wan startpoint uses %q, want tcp", wan.Protocol())
	}

	// Both deliver RSRs to the same handler table semantics.
	got := make(chan string, 2)
	handler := func(tag string) Handler {
		return func(a *vclock.Actor, from int, buf *Buffer) {
			s, _ := buf.GetString()
			got <- tag + ":" + s
		}
	}
	procs[1].Register(1, handler("san"))
	procs[2].Register(1, handler("wan"))
	a := vclock.NewActor("app")
	if err := local.RSR(a, 1, NewBuffer().PutString("x")); err != nil {
		t.Fatal(err)
	}
	if err := wan.RSR(a, 1, NewBuffer().PutString("y")); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{<-got: true, <-got: true}
	if !seen["san:x"] || !seen["wan:y"] {
		t.Errorf("deliveries = %v", seen)
	}
}

func TestMultiprotocolUnreachable(t *testing.T) {
	w := simnet.NewWorld(3)
	w.Node(0).AddAdapter(sisci.Network)
	w.Node(1).AddAdapter(sisci.Network)
	w.Node(2).AddAdapter(tcpnet.Network)
	w.Node(0).AddAdapter(tcpnet.Network)
	sess := core.NewSession(w)
	sci, err := sess.NewChannel(core.ChannelSpec{Name: "san", Driver: "sisci"})
	if err != nil {
		t.Fatal(err)
	}
	p := AttachMulti(sci[0])
	t.Cleanup(p.Close)
	if _, err := p.Bind(2); err == nil {
		t.Error("binding an unreachable rank must fail across all protocols")
	}
}
