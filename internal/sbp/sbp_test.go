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

func TestPoolBoundsAndRecycling(t *testing.T) {
	e0, e1 := pair(t)
	s := vclock.NewActor("s")
	// Drain the whole tx pool, send everything, and verify the buffers
	// return to the pool after Send (the kernel owns them again).
	bufs := make([]*Buf, PoolSize)
	for i := range bufs {
		bufs[i] = e0.ObtainBuffer()
		bufs[i].Bytes()[0] = byte(i)
	}
	for _, b := range bufs {
		if err := e0.Send(s, 1, 0, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	// All buffers recycled: obtaining PoolSize more must not block.
	for i := 0; i < PoolSize; i++ {
		e0.Release(e0.ObtainBuffer())
	}
	r := vclock.NewActor("r")
	for i := 0; i < PoolSize; i++ {
		rb, _, err := e1.Recv(r, 0, 0)
		if err != nil || rb.Bytes()[0] != byte(i) {
			t.Fatalf("recv %d: %v", i, err)
		}
		e1.Release(rb)
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
