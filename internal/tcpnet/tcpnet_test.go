package tcpnet

import (
	"bytes"
	"testing"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

func pair(t *testing.T) (*Endpoint, *Endpoint) {
	t.Helper()
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(Network)
	w.Node(1).AddAdapter(Network)
	e0, err := Attach(w.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Attach(w.Node(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	return e0, e1
}

func TestAttachErrors(t *testing.T) {
	w := simnet.NewWorld(1)
	if _, err := Attach(w.Node(0), 0); err == nil {
		t.Error("attach without an Ethernet adapter must fail")
	}
}

func TestSendRecv(t *testing.T) {
	e0, e1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	msg := []byte("over fast ethernet")
	if err := e0.Send(s, 1, 80, msg); err != nil {
		t.Fatal(err)
	}
	got, err := e1.Recv(r, 0, 80)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("recv: %q, %v", got, err)
	}
	if want := model.TCPFE.Time(len(msg)); r.Now() != want {
		t.Errorf("one-way = %v, want %v", r.Now(), want)
	}
	// Kernel TCP latency is in the tens of microseconds, far above SAN
	// interconnects — the reason Fig. 7's TCP curve sits where it does.
	if r.Now() < vclock.Micros(50) {
		t.Errorf("TCP latency %v implausibly low", r.Now())
	}
}

func TestSendToMissingPeer(t *testing.T) {
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(Network)
	e0, _ := Attach(w.Node(0), 0)
	s := vclock.NewActor("s")
	if err := e0.Send(s, 1, 0, []byte{1}); err == nil {
		t.Error("send to a node without an adapter must fail")
	}
}

func TestPortsAreIndependent(t *testing.T) {
	e0, e1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	e0.Send(s, 1, 1, []byte("one"))
	e0.Send(s, 1, 2, []byte("two"))
	got2, _ := e1.Recv(r, 0, 2)
	got1, _ := e1.Recv(r, 0, 1)
	if string(got2) != "two" || string(got1) != "one" {
		t.Errorf("port demux broken: %q/%q", got1, got2)
	}
}

func TestSenderBufferReusable(t *testing.T) {
	e0, e1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	buf := []byte("original")
	e0.Send(s, 1, 0, buf)
	copy(buf, "CLOBBER!")
	got, _ := e1.Recv(r, 0, 0)
	if string(got) != "original" {
		t.Errorf("kernel must copy on send; got %q", got)
	}
}

func TestStreamBandwidth(t *testing.T) {
	e0, e1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	const n, msgs = 64 << 10, 16
	for i := 0; i < msgs; i++ {
		if err := e0.Send(s, 1, 0, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		if _, err := e1.Recv(r, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	bw := vclock.MBps(n*msgs, r.Now())
	if bw > model.TCPFE.Bandwidth || bw < model.TCPFE.Bandwidth*0.9 {
		t.Errorf("stream bandwidth = %.1f MB/s, want ≈%.1f", bw, model.TCPFE.Bandwidth)
	}
}

// TestSendOutsideWorld: a destination rank outside the world is an error
// from Send, not a panic.
func TestSendOutsideWorld(t *testing.T) {
	e0, _ := pair(t)
	s := vclock.NewActor("s")
	for _, dst := range []int{2, -1} {
		if err := e0.Send(s, dst, 0, []byte{1}); err == nil {
			t.Errorf("send to rank %d of a 2-node world must fail", dst)
		}
	}
}
