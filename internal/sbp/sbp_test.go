package sbp

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
		t.Error("attach without an adapter must fail")
	}
}

func TestStaticBufferRoundTrip(t *testing.T) {
	e0, e1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	b := e0.ObtainBuffer()
	copy(b.Bytes(), "static payload")
	if err := e0.Send(s, 1, 0, b, 14); err != nil {
		t.Fatal(err)
	}
	rb, n, err := e1.Recv(r, 0, 0)
	if err != nil || n != 14 || !bytes.Equal(rb.Bytes()[:n], []byte("static payload")) {
		t.Fatalf("recv: %q/%d/%v", rb.Bytes()[:n], n, err)
	}
	e1.Release(rb)
	if want := model.SBP.Time(14); r.Now() != want {
		t.Errorf("one-way = %v, want %v", r.Now(), want)
	}
}

// TestPoolBoundsAndRecycling: a sent buffer is away until its receiver
// releases it, obtaining beyond PoolSize while every buffer is in flight
// makes more instead of blocking, and once the receiver has released
// everything every buffer the endpoint made is home.
func TestPoolBoundsAndRecycling(t *testing.T) {
	e0, e1 := pair(t)
	s := vclock.NewActor("s")
	const inFlight = 2 * PoolSize
	for i := 0; i < inFlight; i++ {
		b := e0.ObtainBuffer()
		b.Bytes()[0] = byte(i)
		if err := e0.Send(s, 1, 0, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	if away, made := e0.Outstanding(); away != inFlight || made != inFlight {
		t.Fatalf("%d buffers in flight: %d away of %d made, want all away", inFlight, away, made)
	}
	r := vclock.NewActor("r")
	for i := 0; i < inFlight; i++ {
		rb, n, err := e1.Recv(r, 0, 0)
		if err != nil || n != 1 || rb.Bytes()[0] != byte(i) {
			t.Fatalf("recv %d: %d bytes, %v", i, n, err)
		}
		e1.Release(rb)
		if away, _ := e0.Outstanding(); away != inFlight-1-i {
			t.Fatalf("after %d releases %d buffers are away, want %d", i+1, away, inFlight-1-i)
		}
	}
	if e0.txPool.Len() != inFlight {
		t.Errorf("pool holds %d buffers, want the %d it made", e0.txPool.Len(), inFlight)
	}
	if away, made := e1.Outstanding(); away != 0 || made != PoolSize {
		t.Errorf("receiver: %d away of %d made, want 0 of %d: receiving takes no buffer of its own", away, made, PoolSize)
	}
}

// TestRecvLendsSenderBuffer: the receiver gets the sender's own buffer,
// its bytes in place, and releasing it brings it home to the sender's
// pool, to be obtained again.
func TestRecvLendsSenderBuffer(t *testing.T) {
	e0, e1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	b := e0.ObtainBuffer()
	copy(b.Bytes(), "lent, not copied")
	if err := e0.Send(s, 1, 0, b, 16); err != nil {
		t.Fatal(err)
	}
	rb, n, err := e1.Recv(r, 0, 0)
	if err != nil || rb != b || &rb.Bytes()[0] != &b.data[0] || string(rb.Bytes()[:n]) != "lent, not copied" {
		t.Fatalf("recv: same buffer %v, %q, %v", rb == b, rb.Bytes()[:n], err)
	}
	e1.Release(rb)
	if away, _ := e0.Outstanding(); away != 0 {
		t.Fatalf("%d buffers away after the receiver released", away)
	}
	for i := 0; i < PoolSize; i++ {
		if e0.ObtainBuffer() == b {
			return
		}
	}
	t.Error("the released buffer did not return to the sender's pool")
}

// TestRecvCorruptCopy: a fault in flight delivers a damaged copy, which is
// what the receiver reads; the sender's buffer keeps its bytes and goes
// home on Release, and its next use reads its own bytes again.
func TestRecvCorruptCopy(t *testing.T) {
	e0, e1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	want := bytes.Repeat([]byte{0x5a}, 64)
	b := e0.ObtainBuffer()
	copy(b.Bytes(), want)
	e0.adapter.CorruptNext()
	if err := e0.Send(s, 1, 0, b, len(want)); err != nil {
		t.Fatal(err)
	}
	rb, n, err := e1.Recv(r, 0, 0)
	if err != nil || rb != b || n != len(want) {
		t.Fatalf("recv: same buffer %v, %d bytes, %v", rb == b, n, err)
	}
	if got := rb.Bytes()[:n]; bytes.Equal(got, want) || &got[0] == &b.data[0] {
		t.Error("the receiver must read the fault's flipped copy")
	}
	if !bytes.Equal(b.data[:n], want) {
		t.Error("the fault wrote the sender's buffer")
	}
	e1.Release(rb)
	if away, _ := e0.Outstanding(); away != 0 || &b.Bytes()[0] != &b.data[0] || len(b.Bytes()) != BufSize {
		t.Fatalf("after Release: %d away, buffer exposes %d bytes of its own %v", away, len(b.Bytes()), &b.Bytes()[0] == &b.data[0])
	}
	if err := e0.Send(s, 1, 0, b, len(want)); err != nil {
		t.Fatal(err)
	}
	if rb, n, _ := e1.Recv(r, 0, 0); !bytes.Equal(rb.Bytes()[:n], want) {
		t.Error("the buffer's next trip read the damaged copy")
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	e0, _ := pair(t)
	s := vclock.NewActor("s")
	if err := e0.Send(s, 1, 0, e0.ObtainBuffer(), BufSize+1); err == nil {
		t.Error("payload above the static buffer size must be rejected")
	}
}

func TestSendToMissingPeer(t *testing.T) {
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(Network)
	e0, _ := Attach(w.Node(0), 0)
	s := vclock.NewActor("s")
	if err := e0.Send(s, 1, 0, e0.ObtainBuffer(), 4); err == nil {
		t.Error("send to a node without an adapter must fail")
	}
}

// TestFailedSendReturnsBuffer: Send owns the buffer on every path, so
// failed sends — more of them than the pool holds, of both kinds — leave
// the pool exactly full.
func TestFailedSendReturnsBuffer(t *testing.T) {
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(Network)
	e0, _ := Attach(w.Node(0), 0)
	s := vclock.NewActor("s")
	for i := 0; i < 2*PoolSize; i++ {
		n := 4 // no adapter on the peer
		if i%2 == 1 {
			n = BufSize + 1 // oversized
		}
		if err := e0.Send(s, 1, 0, e0.ObtainBuffer(), n); err == nil {
			t.Fatalf("send %d must fail", i)
		}
	}
	for i := 0; i < PoolSize; i++ {
		if _, ok := e0.txPool.TryPop(); !ok {
			t.Fatalf("pool holds %d buffers after failed sends, want %d", i, PoolSize)
		}
	}
	if _, ok := e0.txPool.TryPop(); ok {
		t.Errorf("pool holds more than %d buffers: a failed send released twice", PoolSize)
	}
}
