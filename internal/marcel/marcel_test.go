package marcel

import (
	"errors"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/vclock"
)

func channelPair(t *testing.T) map[int]*core.Channel {
	t.Helper()
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(sisci.Network)
	w.Node(1).AddAdapter(sisci.Network)
	sess := core.NewSession(w)
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "marcel", Driver: "sisci"})
	if err != nil {
		t.Fatal(err)
	}
	return chans
}

// sendAt ships one n-byte message whose sender clock starts at `at`, so
// the arrival lands at a controlled virtual time.
func sendAt(t *testing.T, chans map[int]*core.Channel, at vclock.Time, n int) {
	t.Helper()
	a := vclock.NewActor("sender")
	a.SetNow(at)
	conn, err := chans[0].BeginPacking(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Pack(make([]byte, n), core.SendCheaper, core.ReceiveExpress); err != nil {
		t.Fatal(err)
	}
	if err := conn.EndPacking(); err != nil {
		t.Fatal(err)
	}
}

// receive runs one policy-wrapped receive with the receiver ready at 0.
func receive(t *testing.T, chans map[int]*core.Channel, pol Policy, n int) (*Listener, vclock.Time) {
	t.Helper()
	l := NewListener(chans[1], pol, Config{})
	r := vclock.NewActor("recv")
	buf := make([]byte, n)
	err := l.Serve(r, func(conn *Conn) error {
		return conn.Unpack(buf, core.SendCheaper, core.ReceiveExpress)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := chans[1].Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	return l, r.Now()
}

func TestPollingBurnsCPUForLowLatency(t *testing.T) {
	chans := channelPair(t)
	// Arrival well after the receiver is ready: a 300 µs wait.
	sendAt(t, chans, vclock.Micros(300), 16)
	l, done := receive(t, chans, Polling, 16)
	st := l.Stats()
	if st.Receives != 1 || st.Waited != 1 || st.Interrupts != 0 {
		t.Errorf("stats = %+v", st)
	}
	// CPU burnt ≈ the whole wait.
	if st.CPUBusy < vclock.Micros(295) {
		t.Errorf("polling must burn the wait: CPUBusy = %v", st.CPUBusy)
	}
	// Latency added: only the half poll period.
	cfg := DefaultConfig()
	if st.AddedLat != cfg.PollPeriod/2 {
		t.Errorf("added latency = %v, want %v", st.AddedLat, cfg.PollPeriod/2)
	}
	if done < vclock.Micros(300) {
		t.Errorf("completion %v before the arrival", done)
	}
}

func TestInterruptFreesCPUAtLatencyCost(t *testing.T) {
	chans := channelPair(t)
	sendAt(t, chans, vclock.Micros(300), 16)
	l, _ := receive(t, chans, Interrupt, 16)
	st := l.Stats()
	if st.CPUBusy != 0 {
		t.Errorf("interrupt mode must not burn CPU: %v", st.CPUBusy)
	}
	if st.Interrupts != 1 || st.AddedLat != DefaultConfig().IRQLatency {
		t.Errorf("stats = %+v", st)
	}
}

func TestAdaptiveCatchesFastMessagesInSpin(t *testing.T) {
	chans := channelPair(t)
	// Arrival within the 20 µs grace window (SISCI small ≈ 3.9 µs).
	sendAt(t, chans, 0, 16)
	l, _ := receive(t, chans, Adaptive, 16)
	st := l.Stats()
	if st.Interrupts != 0 {
		t.Errorf("fast arrival must be caught spinning: %+v", st)
	}
	if st.AddedLat != DefaultConfig().PollPeriod/2 {
		t.Errorf("added latency = %v", st.AddedLat)
	}
	if st.CPUBusy > DefaultConfig().Spin {
		t.Errorf("CPU burnt %v exceeds the spin window", st.CPUBusy)
	}
}

func TestAdaptiveFallsBackToInterrupt(t *testing.T) {
	chans := channelPair(t)
	sendAt(t, chans, vclock.Micros(500), 16)
	l, done := receive(t, chans, Adaptive, 16)
	st := l.Stats()
	cfg := DefaultConfig()
	if st.Interrupts != 1 {
		t.Errorf("late arrival must arm the interrupt: %+v", st)
	}
	// CPU burnt: exactly the spin window, not the whole wait.
	if st.CPUBusy != cfg.Spin {
		t.Errorf("CPU burnt %v, want the %v spin window", st.CPUBusy, cfg.Spin)
	}
	if done < vclock.Micros(500)+cfg.IRQLatency {
		t.Errorf("completion %v misses the IRQ cost", done)
	}
}

func TestPolicyTradeoffOrdering(t *testing.T) {
	// For a late arrival: polling has the best latency and the worst CPU,
	// interrupt the reverse, adaptive in between on both axes.
	results := map[Policy]Stats{}
	for _, pol := range []Policy{Polling, Interrupt, Adaptive} {
		chans := channelPair(t)
		sendAt(t, chans, vclock.Micros(400), 16)
		l, _ := receive(t, chans, pol, 16)
		results[pol] = l.Stats()
	}
	if !(results[Polling].AddedLat < results[Adaptive].AddedLat ||
		results[Polling].AddedLat < results[Interrupt].AddedLat) {
		t.Errorf("polling must win latency: %+v", results)
	}
	if !(results[Interrupt].CPUBusy < results[Adaptive].CPUBusy &&
		results[Adaptive].CPUBusy < results[Polling].CPUBusy) {
		t.Errorf("CPU ordering wrong: poll %v > adaptive %v > interrupt %v expected",
			results[Polling].CPUBusy, results[Adaptive].CPUBusy, results[Interrupt].CPUBusy)
	}
}

func TestSubsequentUnpacksPassThrough(t *testing.T) {
	chans := channelPair(t)
	// Two-block message: only the first block pays the policy cost.
	a := vclock.NewActor("sender")
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		conn, _ := chans[0].BeginPacking(a, 1)
		conn.Pack(make([]byte, 8), core.SendCheaper, core.ReceiveExpress)
		conn.Pack(make([]byte, 8), core.SendCheaper, core.ReceiveExpress)
		conn.EndPacking()
	}()
	l := NewListener(chans[1], Interrupt, Config{})
	r := vclock.NewActor("recv")
	buf := make([]byte, 8)
	var after1 vclock.Time
	err := l.Serve(r, func(conn *Conn) error {
		if err := conn.Unpack(buf, core.SendCheaper, core.ReceiveExpress); err != nil {
			return err
		}
		after1 = l.Stats().AddedLat
		return conn.Unpack(buf, core.SendCheaper, core.ReceiveExpress)
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Stats().AddedLat != after1 {
		t.Error("second unpack must not pay the policy cost again")
	}
	if l.Stats().Interrupts != 1 {
		t.Errorf("interrupts = %d", l.Stats().Interrupts)
	}
	<-sent
	if err := chans[1].Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// Serve ends the message when f fails after a good Unpack: f's error comes
// back and the receive lease is free for the next message.
func TestServeEndsMessageOnError(t *testing.T) {
	chans := channelPair(t)
	sendAt(t, chans, 0, 8)
	sendAt(t, chans, 0, 8)
	l := NewListener(chans[1], Polling, Config{})
	r := vclock.NewActor("recv")
	buf := make([]byte, 8)
	errApp := errors.New("handler failed")
	err := l.Serve(r, func(conn *Conn) error {
		if err := conn.Unpack(buf, core.SendCheaper, core.ReceiveExpress); err != nil {
			return err
		}
		return errApp
	})
	if err != errApp {
		t.Fatalf("Serve = %v, want the handler's error", err)
	}
	err = l.Serve(r, func(conn *Conn) error {
		if conn.Remote() != 0 {
			t.Errorf("Remote = %d, want 0", conn.Remote())
		}
		return conn.Unpack(buf, core.SendCheaper, core.ReceiveExpress)
	})
	if err != nil {
		t.Fatalf("second Serve: %v", err)
	}
	if err := chans[1].Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyNames(t *testing.T) {
	if Polling.String() != "polling" || Interrupt.String() != "interrupt" || Adaptive.String() != "adaptive" {
		t.Error("policy names broken")
	}
	l := NewListener(nil, Adaptive, Config{})
	if l.Policy() != Adaptive {
		t.Error("Policy() broken")
	}
}
