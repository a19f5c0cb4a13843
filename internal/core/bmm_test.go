package core

import (
	"bytes"
	"testing"

	"madeleine2/internal/model"
	"madeleine2/internal/vclock"
)

// mockTM is a loop-back transmission module recording the exact buffer
// sequence it is asked to ship, for white-box BMM tests.
type mockTM struct {
	static int // 0 = dynamic
	sent   [][]byte
	groups []int // group sizes as flushed
	wire   [][]byte
	rel    int // released static buffers
}

func (m *mockTM) Name() string             { return "mock" }
func (m *mockTM) Link(n int) model.Link    { return model.Link{Name: "mock", Bandwidth: 100} }
func (m *mockTM) StaticSize() int          { return m.static }
func (m *mockTM) NewBMM(cs *ConnState) BMM { panic("not used") }

func (m *mockTM) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	cp := append([]byte(nil), data...)
	m.sent = append(m.sent, cp)
	m.groups = append(m.groups, 1)
	m.wire = append(m.wire, cp)
	return nil
}

func (m *mockTM) SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error {
	m.groups = append(m.groups, len(group))
	for _, g := range group {
		cp := append([]byte(nil), g...)
		m.sent = append(m.sent, cp)
		m.wire = append(m.wire, cp)
	}
	return nil
}

func (m *mockTM) pop() []byte {
	if len(m.wire) == 0 {
		panic("mockTM: wire empty")
	}
	b := m.wire[0]
	m.wire = m.wire[1:]
	return b
}

func (m *mockTM) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	copy(dst, m.pop())
	return nil
}

func (m *mockTM) ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error {
	for _, d := range dsts {
		if err := m.ReceiveBuffer(a, cs, d); err != nil {
			return err
		}
	}
	return nil
}

func (m *mockTM) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	if m.static == 0 {
		return nil, ErrNoStatic
	}
	return make([]byte, m.static), nil
}

func (m *mockTM) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	if m.static == 0 {
		return nil, ErrNoStatic
	}
	return m.pop(), nil
}

func (m *mockTM) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	m.rel++
	return nil
}

func TestEagerDynSendsImmediatelyExceptLater(t *testing.T) {
	tm := &mockTM{}
	b := newEagerDyn(tm, new(ConnState))
	a := vclock.NewActor("t")

	// CHEAPER with nothing pending: ships at once.
	b.Pack(a, []byte("one"), SendCheaper, ReceiveCheaper)
	if len(tm.sent) != 1 {
		t.Fatalf("eager pack did not send: %d", len(tm.sent))
	}
	// LATER holds the line...
	b.Pack(a, []byte("two"), SendLater, ReceiveCheaper)
	if len(tm.sent) != 1 {
		t.Fatal("LATER block must be delayed")
	}
	// ...and a subsequent CHEAPER must queue behind it (FIFO).
	b.Pack(a, []byte("three"), SendCheaper, ReceiveCheaper)
	if len(tm.sent) != 1 {
		t.Fatal("blocks behind a LATER block must queue")
	}
	if err := b.Commit(a); err != nil {
		t.Fatal(err)
	}
	want := []string{"one", "two", "three"}
	for i, w := range want {
		if string(tm.sent[i]) != w {
			t.Errorf("wire[%d] = %q, want %q", i, tm.sent[i], w)
		}
	}
}

func TestEagerDynSaferCopies(t *testing.T) {
	tm := &mockTM{}
	b := newEagerDyn(tm, new(ConnState))
	a := vclock.NewActor("t")
	data := []byte("safer")
	b.Pack(a, data, SendSafer, ReceiveCheaper) // sent immediately (copy)
	data[0] = 'X'
	if string(tm.sent[0]) != "safer" {
		t.Errorf("SAFER block carried %q", tm.sent[0])
	}
	// LATER keeps the reference: updates are visible at commit.
	data2 := []byte("later")
	b.Pack(a, data2, SendLater, ReceiveCheaper)
	copy(data2, "LATER")
	b.Commit(a)
	if string(tm.sent[1]) != "LATER" {
		t.Errorf("LATER block carried %q", tm.sent[1])
	}
}

func TestEagerDynExpressFlushes(t *testing.T) {
	tm := &mockTM{}
	b := newEagerDyn(tm, new(ConnState))
	a := vclock.NewActor("t")
	b.Pack(a, []byte("l"), SendLater, ReceiveCheaper)
	b.Pack(a, []byte("e"), SendCheaper, ReceiveExpress) // forces the flush
	if len(tm.sent) != 2 {
		t.Fatalf("EXPRESS pack must flush pending blocks, sent=%d", len(tm.sent))
	}
}

func TestAggrDynGroupsUntilCommit(t *testing.T) {
	tm := &mockTM{}
	b := newAggrDyn(tm, new(ConnState))
	a := vclock.NewActor("t")
	b.Pack(a, []byte("a"), SendCheaper, ReceiveCheaper)
	b.Pack(a, []byte("b"), SendSafer, ReceiveCheaper)
	b.Pack(a, []byte("c"), SendLater, ReceiveCheaper)
	if len(tm.sent) != 0 {
		t.Fatal("aggregating BMM must not send before commit")
	}
	b.Commit(a)
	if len(tm.groups) != 1 || tm.groups[0] != 3 {
		t.Fatalf("groups = %v, want one group of 3", tm.groups)
	}
	// Receive side: deferred dsts drain as one sub-group.
	d1, d2, d3 := make([]byte, 1), make([]byte, 1), make([]byte, 1)
	b.Unpack(a, d1, ReceiveCheaper)
	b.Unpack(a, d2, ReceiveCheaper)
	b.Unpack(a, d3, ReceiveCheaper)
	if string(d1)+string(d2)+string(d3) != "\x00\x00\x00" {
		t.Fatal("cheaper unpacks must not extract before checkout")
	}
	b.Checkout(a)
	if string(d1)+string(d2)+string(d3) != "abc" {
		t.Errorf("checkout extracted %q%q%q", d1, d2, d3)
	}
}

func TestAggrDynExpressSplitsGroups(t *testing.T) {
	tm := &mockTM{}
	b := newAggrDyn(tm, new(ConnState))
	a := vclock.NewActor("t")
	b.Pack(a, []byte("a"), SendCheaper, ReceiveCheaper)
	b.Pack(a, []byte("b"), SendCheaper, ReceiveExpress) // flush group of 2
	b.Pack(a, []byte("c"), SendCheaper, ReceiveCheaper)
	b.Commit(a) // flush group of 1
	if len(tm.groups) != 2 || tm.groups[0] != 2 || tm.groups[1] != 1 {
		t.Errorf("groups = %v, want [2 1]", tm.groups)
	}
}

func TestStatCopyAggregatesSmallBlocks(t *testing.T) {
	tm := &mockTM{static: 16}
	b := newStatCopy(tm, new(ConnState))
	a := vclock.NewActor("t")
	b.Pack(a, []byte("abcd"), SendCheaper, ReceiveCheaper)
	b.Pack(a, []byte("efgh"), SendCheaper, ReceiveCheaper)
	if len(tm.sent) != 0 {
		t.Fatal("small blocks must aggregate inside the static buffer")
	}
	b.Commit(a)
	if len(tm.sent) != 1 || string(tm.sent[0]) != "abcdefgh" {
		t.Fatalf("flushed %q", tm.sent)
	}
}

func TestStatCopySplitsLargeBlocks(t *testing.T) {
	tm := &mockTM{static: 8}
	b := newStatCopy(tm, new(ConnState))
	a := vclock.NewActor("t")
	b.Pack(a, []byte("0123456789abcdefXYZ"), SendCheaper, ReceiveCheaper)
	b.Commit(a)
	if len(tm.sent) != 3 {
		t.Fatalf("19 bytes over 8-byte buffers: %d sends", len(tm.sent))
	}
	if string(tm.sent[0]) != "01234567" || string(tm.sent[1]) != "89abcdef" || string(tm.sent[2]) != "XYZ" {
		t.Errorf("split = %q", tm.sent)
	}
	// Receive side reassembles across buffer boundaries.
	dst := make([]byte, 19)
	b.Unpack(a, dst, ReceiveCheaper)
	if err := b.Checkout(a); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "0123456789abcdefXYZ" {
		t.Errorf("reassembled %q", dst)
	}
	if tm.rel != 3 {
		t.Errorf("released %d static buffers, want 3", tm.rel)
	}
}

func TestStatCopyLaterReservesSpace(t *testing.T) {
	tm := &mockTM{static: 16}
	b := newStatCopy(tm, new(ConnState))
	a := vclock.NewActor("t")
	data := []byte("wxyz")
	b.Pack(a, []byte("head"), SendCheaper, ReceiveCheaper)
	b.Pack(a, data, SendLater, ReceiveCheaper)
	b.Pack(a, []byte("tail"), SendCheaper, ReceiveCheaper)
	copy(data, "WXYZ") // update after pack: LATER must see it
	b.Commit(a)
	if len(tm.sent) != 1 || string(tm.sent[0]) != "headWXYZtail" {
		t.Fatalf("wire = %q, want headWXYZtail in order", tm.sent)
	}
}

func TestStatCopyOverDynamicTMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("static-copy over a dynamic TM must panic")
		}
	}()
	newStatCopy(&mockTM{static: 0}, new(ConnState))
}

func TestStatCopyExpressReceivesNow(t *testing.T) {
	tm := &mockTM{static: 32}
	b := newStatCopy(tm, new(ConnState))
	a := vclock.NewActor("t")
	b.Pack(a, []byte("payload"), SendCheaper, ReceiveExpress)
	if len(tm.sent) != 1 {
		t.Fatal("EXPRESS pack must flush")
	}
	dst := make([]byte, 7)
	if err := b.Unpack(a, dst, ReceiveExpress); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, []byte("payload")) {
		t.Errorf("EXPRESS unpack = %q before checkout", dst)
	}
}
