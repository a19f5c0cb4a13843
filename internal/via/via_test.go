package via

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

func pair(t *testing.T) (*NIC, *NIC) {
	t.Helper()
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(Network)
	w.Node(1).AddAdapter(Network)
	n0, err := Attach(w.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := Attach(w.Node(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	return n0, n1
}

func TestAttachErrors(t *testing.T) {
	w := simnet.NewWorld(1)
	if _, err := Attach(w.Node(0), 0); err == nil {
		t.Error("attach without a VIA adapter must fail")
	}
}

func TestRegistrationCost(t *testing.T) {
	n0, _ := pair(t)
	a := vclock.NewActor("app")
	m := n0.Register(a, make([]byte, 3*model.VIAPageSize))
	if a.Now() != 3*model.VIARegister {
		t.Errorf("3-page registration cost = %v, want %v", a.Now(), 3*model.VIARegister)
	}
	if !bytes.Equal(m.Bytes(), make([]byte, 3*model.VIAPageSize)) {
		t.Error("region bytes not exposed")
	}
	a.SetNow(0)
	n0.Register(a, nil) // zero-length still costs one page entry
	if a.Now() != model.VIARegister {
		t.Errorf("empty registration cost = %v", a.Now())
	}
}

func TestSendRecvOverVI(t *testing.T) {
	n0, n1 := pair(t)
	v0 := n0.CreateVI(1, 1, 0)
	v1 := n1.CreateVI(1, 0, 0)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")

	rbuf := n1.Register(r, make([]byte, 4096))
	if err := v1.PostRecv(rbuf); err != nil {
		t.Fatal(err)
	}
	if v1.PostedRecvs() != 1 {
		t.Fatalf("PostedRecvs = %d", v1.PostedRecvs())
	}
	sbuf := n0.Register(s, make([]byte, 4096))
	copy(sbuf.Bytes(), "via payload")
	if err := v0.Send(s, sbuf, 11, model.VIASend); err != nil {
		t.Fatal(err)
	}
	got, n, err := v1.WaitRecv(r)
	if err != nil || n != 11 || !bytes.Equal(got.Bytes()[:n], []byte("via payload")) {
		t.Fatalf("recv: %q/%d/%v", got.Bytes()[:n], n, err)
	}
	// One-way time = registration (already on r's clock) + send path.
	if r.Now() < model.VIASend.Time(11) {
		t.Errorf("arrival %v earlier than the send path %v", r.Now(), model.VIASend.Time(11))
	}
}

func TestReceiverNotReady(t *testing.T) {
	n0, n1 := pair(t)
	v0 := n0.CreateVI(2, 1, 0)
	n1.CreateVI(2, 0, 0) // mirror exists but posts nothing
	s := vclock.NewActor("s")
	m := n0.Register(s, make([]byte, 64))
	if err := v0.Send(s, m, 8, model.VIASend); !errors.Is(err, ErrReceiverNotReady) {
		t.Errorf("err = %v, want ErrReceiverNotReady", err)
	}
}

func TestUnregisteredAndSmallDescriptors(t *testing.T) {
	n0, n1 := pair(t)
	v0 := n0.CreateVI(3, 1, 0)
	v1 := n1.CreateVI(3, 0, 0)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")

	m := n0.Register(s, make([]byte, 64))
	m.Deregister()
	if err := v0.Send(s, m, 8, model.VIASend); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("deregistered send err = %v", err)
	}
	if err := v1.PostRecv(m); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("deregistered post err = %v", err)
	}
	small := n1.Register(r, make([]byte, 4))
	v1.PostRecv(small)
	big := n0.Register(s, make([]byte, 64))
	if err := v0.Send(s, big, 64, model.VIASend); !errors.Is(err, ErrTooSmall) {
		t.Errorf("oversized send err = %v", err)
	}
}

func TestMissingPeerVI(t *testing.T) {
	n0, _ := pair(t)
	v0 := n0.CreateVI(9, 1, 0)
	s := vclock.NewActor("s")
	m := n0.Register(s, make([]byte, 8))
	if err := v0.Send(s, m, 8, model.VIASend); err == nil {
		t.Error("send without a mirror VI must fail")
	}
}

func TestCreateVIIdempotent(t *testing.T) {
	n0, _ := pair(t)
	a := n0.CreateVI(5, 1, 0)
	b := n0.CreateVI(5, 1, 0)
	if a != b {
		t.Error("CreateVI with the same id must return the same endpoint")
	}
}

func TestCompletionOrderAndClose(t *testing.T) {
	n0, n1 := pair(t)
	v0 := n0.CreateVI(7, 1, 0)
	v1 := n1.CreateVI(7, 0, 0)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	for i := 0; i < 4; i++ {
		v1.PostRecv(n1.Register(r, make([]byte, 16)))
	}
	m := n0.Register(s, make([]byte, 16))
	for i := 0; i < 4; i++ {
		m.Bytes()[0] = byte(i)
		if err := v0.Send(s, m, 1, model.VIASend); err != nil {
			t.Fatal(err)
		}
	}
	prev := vclock.Time(-1)
	for i := 0; i < 4; i++ {
		got, n, err := v1.WaitRecv(r)
		if err != nil || n != 1 || got.Bytes()[0] != byte(i) {
			t.Fatalf("completion %d: %v/%d/%v", i, got.Bytes()[:1], n, err)
		}
		if r.Now() < prev {
			t.Errorf("completion %d regressed in time", i)
		}
		prev = r.Now()
	}
	v1.Close()
	if _, _, err := v1.WaitRecv(r); !errors.Is(err, ErrVIClosed) {
		t.Errorf("WaitRecv on a closed VI: err = %v, want ErrVIClosed", err)
	}
}

func TestDeregisterEnforcedAtDelivery(t *testing.T) {
	// A descriptor that was registered when posted but deregistered before
	// the send consumes it must fail the send, not silently land bytes in
	// unpinned memory.
	n0, n1 := pair(t)
	v0 := n0.CreateVI(11, 1, 0)
	v1 := n1.CreateVI(11, 0, 0)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")

	dst := n1.Register(r, make([]byte, 64))
	if err := v1.PostRecv(dst); err != nil {
		t.Fatal(err)
	}
	if err := dst.Deregister(); err != nil {
		t.Fatal(err)
	}
	src := n0.Register(s, make([]byte, 64))
	if err := v0.Send(s, src, 8, model.VIASend); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("send into deregistered posted descriptor: err = %v, want ErrNotRegistered", err)
	}
	if err := dst.Deregister(); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("double deregister: err = %v, want ErrNotRegistered", err)
	}
}

func TestDeregisterEnforcedAtReap(t *testing.T) {
	// Deregistering between delivery and WaitRecv fails the reap: the
	// region must not be handed back out as a live NIC buffer.
	n0, n1 := pair(t)
	v0 := n0.CreateVI(12, 1, 0)
	v1 := n1.CreateVI(12, 0, 0)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")

	dst := n1.Register(r, make([]byte, 64))
	if err := v1.PostRecv(dst); err != nil {
		t.Fatal(err)
	}
	src := n0.Register(s, make([]byte, 64))
	if err := v0.Send(s, src, 8, model.VIASend); err != nil {
		t.Fatal(err)
	}
	if err := dst.Deregister(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v1.WaitRecv(r); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("reap of deregistered region: err = %v, want ErrNotRegistered", err)
	}
}

func TestCloseReturnsPostedRegions(t *testing.T) {
	// Close hands back the never-consumed posted descriptors so the caller
	// can reclaim the registered buffers; PostRecv afterwards fails.
	n0, n1 := pair(t)
	_ = n0
	v1 := n1.CreateVI(13, 0, 0)
	r := vclock.NewActor("r")
	var posted []*MemRegion
	for i := 0; i < 3; i++ {
		m := n1.Register(r, make([]byte, 32))
		posted = append(posted, m)
		if err := v1.PostRecv(m); err != nil {
			t.Fatal(err)
		}
	}
	got := v1.Close()
	if len(got) != 3 {
		t.Fatalf("Close returned %d regions, want 3", len(got))
	}
	for i, m := range got {
		if m != posted[i] {
			t.Errorf("region %d not returned in post order", i)
		}
		if err := m.Deregister(); err != nil {
			t.Errorf("reclaimed region %d: %v", i, err)
		}
	}
	if err := v1.PostRecv(n1.Register(r, make([]byte, 32))); !errors.Is(err, ErrVIClosed) {
		t.Errorf("PostRecv after close: err = %v, want ErrVIClosed", err)
	}
}

func TestBlockedWaitRecvFailsAtClose(t *testing.T) {
	// Regression: a receiver blocked in WaitRecv when the VI closes must
	// be woken with ErrVIClosed, not hang its vclock actor.
	_, n1 := pair(t)
	v1 := n1.CreateVI(14, 0, 0)
	r := vclock.NewActor("r")
	errc := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, _, err := v1.WaitRecv(r)
		errc <- err
	}()
	<-started
	v1.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrVIClosed) {
			t.Errorf("blocked WaitRecv: err = %v, want ErrVIClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitRecv still blocked after Close")
	}
}

// TestDescriptorLengthBoundsSend: a descriptor posted for the first n
// bytes of a longer region takes no more than n. A larger send fails with
// ErrTooSmall and leaves the region as it was; a send that fits lands
// where the descriptor says.
func TestDescriptorLengthBoundsSend(t *testing.T) {
	n0, n1 := pair(t)
	v0 := n0.CreateVI(4, 1, 0)
	v1 := n1.CreateVI(4, 0, 0)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	dst := n1.Register(r, make([]byte, 64))
	if err := v1.PostRecvN(dst, 65); err == nil {
		t.Error("a descriptor longer than its region was posted")
	}
	src := n0.Register(s, pattern(64))
	if err := v1.PostRecvN(dst, 16); err != nil {
		t.Fatal(err)
	}
	if err := v0.Send(s, src, 32, model.VIASend); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("32 bytes into a 16-byte descriptor: err = %v, want ErrTooSmall", err)
	}
	if !bytes.Equal(dst.Bytes(), make([]byte, 64)) {
		t.Fatal("a refused send wrote into the region")
	}
	if err := v1.PostRecvN(dst, 16); err != nil {
		t.Fatal(err)
	}
	if err := v0.Send(s, src, 16, model.VIASend); err != nil {
		t.Fatal(err)
	}
	got, n, err := v1.WaitRecv(r)
	if err != nil || got != dst || n != 16 {
		t.Fatalf("WaitRecv = %p/%d/%v, want the region and 16", got, n, err)
	}
	if !bytes.Equal(dst.Bytes()[:16], src.Bytes()[:16]) || !bytes.Equal(dst.Bytes()[16:], make([]byte, 48)) {
		t.Error("the send did not land in exactly the descriptor's bytes")
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i) | 1
	}
	return b
}
