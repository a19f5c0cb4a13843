package bip

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// pair builds a two-node Myrinet world with both interfaces attached.
func pair(t *testing.T) (*Interface, *Interface) {
	t.Helper()
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(Network)
	w.Node(1).AddAdapter(Network)
	b0, err := Attach(w.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := Attach(w.Node(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	return b0, b1
}

func TestAttachErrors(t *testing.T) {
	w := simnet.NewWorld(1)
	if _, err := Attach(w.Node(0), 0); err == nil {
		t.Error("attach without an adapter must fail")
	}
	w.Node(0).AddAdapter(Network)
	a, err := Attach(w.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Attach(w.Node(0), 0)
	if err != nil || a != b {
		t.Error("re-attach must return the same interface")
	}
	if a.Node() != 0 || a.Adapter() == nil {
		t.Error("interface identity broken")
	}
}

func TestShortRoundTrip(t *testing.T) {
	b0, b1 := pair(t)
	sender, receiver := vclock.NewActor("s"), vclock.NewActor("r")
	msg := []byte("ping")
	if err := b0.TSendShort(sender, 1, 3, msg); err != nil {
		t.Fatal(err)
	}
	got, err := b1.TRecvShort(receiver, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("payload = %q", got)
	}
	// Raw BIP short latency anchor: 5 µs + 4 B at 70 MB/s (§5.2.2).
	want := model.BIPShort.Time(len(msg))
	if receiver.Now() != want {
		t.Errorf("one-way latency = %v, want %v", receiver.Now(), want)
	}
	lat := receiver.Now().Microseconds()
	if lat < 4.8 || lat > 5.4 {
		t.Errorf("raw short latency = %.2f µs, want ≈5 µs", lat)
	}
}

func TestShortTooLong(t *testing.T) {
	b0, _ := pair(t)
	a := vclock.NewActor("s")
	if err := b0.TSendShort(a, 1, 0, make([]byte, ShortMax)); !errors.Is(err, ErrTooLong) {
		t.Errorf("err = %v, want ErrTooLong", err)
	}
}

func TestShortOverrunDetected(t *testing.T) {
	b0, b1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	for i := 0; i < ShortBufs; i++ {
		if err := b0.TSendShort(s, 1, 0, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := b0.TSendShort(s, 1, 0, []byte{0xff}); !errors.Is(err, ErrShortOverrun) {
		t.Fatalf("overrun send err = %v", err)
	}
	// Different tags have independent rings.
	if err := b0.TSendShort(s, 1, 1, []byte{1}); err != nil {
		t.Errorf("other tag must not be blocked: %v", err)
	}
	// Draining one frees a slot.
	if _, err := b1.TRecvShort(r, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := b0.TSendShort(s, 1, 0, []byte{0x10}); err != nil {
		t.Errorf("after drain: %v", err)
	}
}

func TestShortInOrder(t *testing.T) {
	b0, b1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	var sent [][]byte
	for i := 0; i < ShortBufs; i++ {
		m := []byte{byte(i), byte(i * 3)}
		sent = append(sent, m)
		if err := b0.TSendShort(s, 1, 0, m); err != nil {
			t.Fatal(err)
		}
	}
	prev := vclock.Time(-1)
	for i := range sent {
		got, err := b1.TRecvShort(r, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, sent[i]) {
			t.Errorf("message %d = %v, want %v", i, got, sent[i])
		}
		if r.Now() < prev {
			t.Errorf("arrival times not monotone at %d", i)
		}
		prev = r.Now()
	}
}

func TestLongRendezvousRoundTrip(t *testing.T) {
	b0, b1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	const n = 64 * 1024
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	buf := make([]byte, n)
	done := make(chan error, 1)
	go func() {
		_, err := b1.TRecvLong(r, 0, 5, buf)
		done <- err
	}()
	if err := b0.TSendLong(s, 1, 5, payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("payload corrupted on the long path")
	}
	// One-way cost: rendezvous round-trip + DMA fixed + bytes at 126 MB/s.
	want := 2*model.BIPControl.Time(0) + model.BIPLong.Time(n)
	if r.Now() != want {
		t.Errorf("one-way = %v, want %v", r.Now(), want)
	}
}

func TestLongWaitsForPostedReceive(t *testing.T) {
	// The receiver posts late (in virtual time); the sender must leave only
	// after the posted stamp.
	b0, b1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	r.Advance(vclock.Micros(500)) // receiver busy elsewhere for 500 µs
	buf := make([]byte, 1024)
	done := make(chan struct{})
	go func() {
		b1.TRecvLong(r, 0, 0, buf)
		close(done)
	}()
	if err := b0.TSendLong(s, 1, 0, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	<-done
	// Arrival must be ≥ posted time + ready ack + transfer.
	min := vclock.Micros(500) + model.BIPControl.Time(0) + model.BIPLong.Time(1024)
	if r.Now() < min {
		t.Errorf("arrival %v before rendezvous-consistent minimum %v", r.Now(), min)
	}
	// And the sender was blocked past the receiver's posted time too.
	if s.Now() < vclock.Micros(500) {
		t.Errorf("sender left at %v, before the receive was posted", s.Now())
	}
}

func TestLongShortBufferFails(t *testing.T) {
	b0, b1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	errc := make(chan error, 1)
	go func() {
		_, err := b1.TRecvLong(r, 0, 0, make([]byte, 16))
		errc <- err
	}()
	if err := b0.TSendLong(s, 1, 0, make([]byte, 1024)); err == nil {
		t.Error("send into a too-small posted buffer must fail")
	}
	if err := <-errc; err == nil {
		t.Error("receiver must observe the failure")
	}
}

func TestSendToUnattachedPeer(t *testing.T) {
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(Network)
	w.Node(1).AddAdapter(Network) // node 1 never attaches
	b0, _ := Attach(w.Node(0), 0)
	a := vclock.NewActor("s")
	if err := b0.TSendShort(a, 1, 0, []byte{1}); err == nil {
		t.Error("send to an unattached peer must fail")
	}
	if err := b0.TSendLong(a, 1, 0, make([]byte, 2048)); err == nil {
		t.Error("long send to an unattached peer must fail")
	}
}

func TestLongBandwidthApproachesRaw(t *testing.T) {
	// Property-ish sweep: effective raw BIP bandwidth grows with size and
	// approaches 126 MB/s from below (§5.2.2).
	prev := 0.0
	for _, n := range []int{4 << 10, 64 << 10, 1 << 20, 4 << 20} {
		b0, b1 := pair(t) // fresh world: virtual clocks start at the epoch
		s, r := vclock.NewActor("s"), vclock.NewActor("r")
		buf := make([]byte, n)
		done := make(chan struct{})
		go func() {
			b1.TRecvLong(r, 0, 9, buf)
			close(done)
		}()
		if err := b0.TSendLong(s, 1, 9, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		<-done
		bw := vclock.MBps(n, r.Now())
		if bw < prev {
			t.Errorf("bandwidth not monotone at %d bytes: %.1f after %.1f", n, bw, prev)
		}
		if bw > 126 {
			t.Errorf("bandwidth %.1f exceeds the raw BIP asymptote", bw)
		}
		prev = bw
	}
	if prev < 120 {
		t.Errorf("asymptotic raw bandwidth = %.1f MB/s, want ≥120 (paper: 126)", prev)
	}
}

func TestShortPayloadIntegrity(t *testing.T) {
	// Property: any short payload arrives bit-identical.
	b0, b1 := pair(t)
	f := func(data []byte) bool {
		if len(data) >= ShortMax {
			data = data[:ShortMax-1]
		}
		s, r := vclock.NewActor("s"), vclock.NewActor("r")
		if err := b0.TSendShort(s, 1, 2, data); err != nil {
			return false
		}
		got, err := b1.TRecvShort(r, 0, 2)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestSendOutsideWorld: a rank outside the world is an error from every
// call that resolves a peer, not a panic.
func TestSendOutsideWorld(t *testing.T) {
	b0, _ := pair(t)
	a := vclock.NewActor("s")
	if err := b0.TSendShort(a, 2, 0, []byte{1}); err == nil {
		t.Error("short send to rank 2 of a 2-node world must fail")
	}
	if err := b0.TSendLong(a, -1, 0, make([]byte, 2048)); err == nil {
		t.Error("long send to rank -1 must fail")
	}
	if _, err := b0.Pair(5, 0); err == nil {
		t.Error("Pair with rank 5 of a 2-node world must fail")
	}
}

// TestPairMatchesByRankCalls: a resolved Pair and the by-rank calls share
// one record per (source, tag), so short-buffer accounting and long
// rendezvous work across the two forms.
func TestPairMatchesByRankCalls(t *testing.T) {
	b0, b1 := pair(t)
	p01, err := b0.Pair(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	p10, err := b1.Pair(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	for i := 0; i < ShortBufs; i++ {
		send := p01.SendShort
		if i%2 == 1 {
			send = func(a *vclock.Actor, d []byte) error { return b0.TSendShort(a, 1, 4, d) }
		}
		if err := send(s, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := p01.SendShort(s, []byte{0xff}); !errors.Is(err, ErrShortOverrun) {
		t.Fatalf("overrun through the Pair: %v", err)
	}
	for i := 0; i < ShortBufs; i++ {
		recv := p10.RecvShort
		if i%2 == 0 {
			recv = func(a *vclock.Actor) ([]byte, error) { return b1.TRecvShort(a, 0, 4) }
		}
		got, err := recv(r)
		if err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("receive %d = %v, %v", i, got, err)
		}
	}
	if err := p01.SendShort(s, []byte{1}); err != nil {
		t.Fatalf("send after the ring drained: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		n, err := b1.TRecvLong(r, 0, 4, buf)
		if err == nil && (n != 3000 || buf[2999] != 7) {
			err = errors.New("long payload not delivered")
		}
		done <- err
	}()
	long := make([]byte, 3000)
	long[2999] = 7
	if err := p01.SendLong(s, long); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	go func() { done <- b0.TSendLong(s, 1, 4, long) }()
	if n, err := p10.RecvLong(r, make([]byte, 3000)); err != nil || n != 3000 {
		t.Fatalf("RecvLong through the Pair = %d, %v", n, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
