package rdma

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

func pair(t *testing.T) (*HCA, *HCA) {
	t.Helper()
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(Network)
	w.Node(1).AddAdapter(Network)
	h0, err := Attach(w.Node(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := Attach(w.Node(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	return h0, h1
}

func TestAttachErrors(t *testing.T) {
	w := simnet.NewWorld(1)
	if _, err := Attach(w.Node(0), 0); err == nil {
		t.Error("attach without an rdma adapter must fail")
	}
}

func TestRegistrationCostAndKeys(t *testing.T) {
	h0, _ := pair(t)
	a := vclock.NewActor("app")
	m, err := h0.Register(a, 0x10, make([]byte, 3*model.RDMAPageSize))
	if err != nil {
		t.Fatal(err)
	}
	if a.Now() != 3*model.RDMARegister {
		t.Errorf("3-page registration cost = %v, want %v", a.Now(), 3*model.RDMARegister)
	}
	if m.Key() != 0x10 || m.Size() != 3*model.RDMAPageSize {
		t.Errorf("key/size = %#x/%d", m.Key(), m.Size())
	}
	if _, err := h0.Register(a, 0x10, make([]byte, 8)); !errors.Is(err, ErrKeyInUse) {
		t.Errorf("duplicate key: err = %v, want ErrKeyInUse", err)
	}
	if err := m.Deregister(); err != nil {
		t.Fatal(err)
	}
	// The key is free again after deregistration.
	if _, err := h0.Register(a, 0x10, make([]byte, 8)); err != nil {
		t.Errorf("re-register freed key: %v", err)
	}
}

func TestOneSidedWriteIsZeroCopy(t *testing.T) {
	// An RDMA write lands directly in the memory the target registered —
	// no posted descriptor, no copy-out. The target's own slice mutates.
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	dst := make([]byte, 64)
	m, err := h1.Register(r, 1, dst)
	if err != nil {
		t.Fatal(err)
	}
	ep := h0.Dial(1, 0)
	arrive, err := ep.Write(s, 1, 8, []byte("payload"), 7, model.RDMAWrite)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.WaitWrite(r)
	if err != nil {
		t.Fatal(err)
	}
	if c.Off != 8 || c.Len != 7 || c.Tag != 7 || c.Arrive != arrive {
		t.Fatalf("completion = %+v, arrive %v", c, arrive)
	}
	if !bytes.Equal(dst[8:15], []byte("payload")) {
		t.Errorf("caller buffer = %q, write did not land in registered memory", dst[8:15])
	}
	if r.Now() < model.RDMAWrite.Time(7) {
		t.Errorf("arrival %v earlier than the wire path %v", r.Now(), model.RDMAWrite.Time(7))
	}
}

func TestWriteErrors(t *testing.T) {
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	m, err := h1.Register(r, 2, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	ep := h0.Dial(1, 0)
	if _, err := ep.Write(s, 99, 0, []byte("x"), 0, model.RDMAWrite); !errors.Is(err, ErrNoSuchRegion) {
		t.Errorf("unknown key: err = %v, want ErrNoSuchRegion", err)
	}
	if _, err := ep.Write(s, 2, 12, make([]byte, 8), 0, model.RDMAWrite); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overrun: err = %v, want ErrOutOfRange", err)
	}
	if err := m.Deregister(); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Write(s, 2, 0, []byte("x"), 0, model.RDMAWrite); !errors.Is(err, ErrNoSuchRegion) {
		t.Errorf("deregistered key: err = %v, want ErrNoSuchRegion", err)
	}
	if err := m.Deregister(); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("double deregister: err = %v, want ErrNotRegistered", err)
	}
}

func TestDeregisterWakesBlockedWait(t *testing.T) {
	_, h1 := pair(t)
	r := vclock.NewActor("r")
	m, err := h1.Register(r, 3, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := m.WaitWrite(vclock.NewActor("waiter"))
		errc <- err
	}()
	if err := m.Deregister(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrNotRegistered) {
			t.Errorf("woken WaitWrite: err = %v, want ErrNotRegistered", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitWrite still blocked after Deregister")
	}
}

func TestSendCompletionQueue(t *testing.T) {
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	if _, err := h1.Register(r, 4, make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	ep := h0.Dial(1, 0)
	for i := 0; i < 3; i++ {
		if _, err := ep.Write(s, 4, i*8, []byte("chunk"), uint64(i), model.RDMAWrite); err != nil {
			t.Fatal(err)
		}
	}
	poller := vclock.NewActor("poller")
	prev := vclock.Time(-1)
	for i := 0; i < 3; i++ {
		c, ok := ep.WaitSend(poller)
		if !ok || c.Tag != uint64(i) {
			t.Fatalf("send completion %d: %+v/%v", i, c, ok)
		}
		if c.Arrive < prev {
			t.Errorf("send completion %d regressed in time", i)
		}
		prev = c.Arrive
	}
	ep.Close()
	if _, ok := ep.WaitSend(poller); ok {
		t.Error("WaitSend on a closed endpoint must report !ok")
	}
}

func TestRead(t *testing.T) {
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	src := make([]byte, 32)
	copy(src[4:], "remote bytes")
	m, err := h1.Register(r, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	ep := h0.Dial(1, 0)
	dst := make([]byte, 12)
	before := s.Now()
	if err := ep.Read(s, 5, 4, dst, model.RDMAWrite); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, []byte("remote bytes")) {
		t.Errorf("read = %q", dst)
	}
	if s.Now()-before < model.RDMACtrl.Fixed+model.RDMAWrite.Time(12) {
		t.Errorf("read round trip %v too cheap", s.Now()-before)
	}
	if err := ep.Read(s, 5, 30, make([]byte, 8), model.RDMAWrite); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("overrun read: err = %v, want ErrOutOfRange", err)
	}
	if err := m.Deregister(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Read(s, 5, 0, dst, model.RDMAWrite); !errors.Is(err, ErrNoSuchRegion) {
		t.Errorf("deregistered read: err = %v, want ErrNoSuchRegion", err)
	}
}

func TestFaultPlanStrikesWrites(t *testing.T) {
	// The target adapter's fault plan garbles RDMA payloads exactly like
	// two-sided traffic: bytes land torn, the completion still arrives.
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	dst := make([]byte, 64)
	m, err := h1.Register(r, 6, dst)
	if err != nil {
		t.Fatal(err)
	}
	h1.Adapter().SetFaults(&simnet.FaultPlan{Seed: 11, Corrupt: 1, MinBytes: 1})
	payload := bytes.Repeat([]byte{0x5a}, 32)
	ep := h0.Dial(1, 0)
	if _, err := ep.Write(s, 6, 0, payload, 0, model.RDMAWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitWrite(r); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(dst[:32], payload) {
		t.Error("fault plan did not strike the RDMA payload")
	}
	if bytes.Equal(payload, bytes.Repeat([]byte{0x5a}, 32)) == false {
		t.Error("strike modified the sender's buffer in place")
	}
	if st := h1.Adapter().FaultStats(); st.Corrupted == 0 {
		t.Errorf("fault stats = %+v, corruption not counted", st)
	}
}

// TestWritableBoundsWrite: a region narrowed with SetWritable refuses a
// write past its writable bytes with ErrOutOfRange and keeps its bytes;
// widened again, it takes the same write.
func TestWritableBoundsWrite(t *testing.T) {
	h0, h1 := pair(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	dst := make([]byte, 256)
	m, err := h1.Register(r, 7, dst)
	if err != nil {
		t.Fatal(err)
	}
	ep := h0.Dial(1, 0)
	m.SetWritable(64)
	if _, err := ep.Write(s, 7, 0, bytes.Repeat([]byte{0xee}, 128), 0, model.RDMAWrite); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("128 bytes into 64 writable: err = %v, want ErrOutOfRange", err)
	}
	if _, err := ep.Write(s, 7, 60, make([]byte, 8), 0, model.RDMAWrite); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("a write straddling the writable end: err = %v, want ErrOutOfRange", err)
	}
	if !bytes.Equal(dst, make([]byte, 256)) {
		t.Fatal("a refused write landed in the region")
	}
	m.SetWritable(m.Size())
	if _, err := ep.Write(s, 7, 0, bytes.Repeat([]byte{0xee}, 128), 0, model.RDMAWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitWrite(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:128], bytes.Repeat([]byte{0xee}, 128)) {
		t.Error("the widened region did not take the write")
	}
}
