package core

import (
	"bytes"
	"errors"
	"testing"

	"madeleine2/internal/model"
	"madeleine2/internal/vclock"
)

// fakeTM is a scriptable in-memory TM for exercising BMM error paths
// without a fabric: sends append to a log and fail on request, receives
// fill from a queue of canned buffers.
type fakeTM struct {
	static int // StaticSize; 0 = dynamic

	sends    [][]byte // every buffer handed to SendBuffer, in order
	failSend int      // fail the Nth SendBuffer call (1-based; 0 = never)

	recvs    [][]byte // canned incoming stream, one per ReceiveBuffer / ReceiveStaticBuffer
	failRecv int      // fail the Nth such call (1-based; 0 = never)

	obtains     int      // ObtainStaticBuffer call count
	released    [][]byte // every buffer handed to ReleaseStaticBuffer, in order
	failRelease int      // fail the Nth ReleaseStaticBuffer call (1-based; 0 = never)
}

var errFakeWire = errors.New("fake wire failure")

func (f *fakeTM) Name() string             { return "fake" }
func (f *fakeTM) Link(n int) model.Link    { return model.Link{} }
func (f *fakeTM) NewBMM(cs *ConnState) BMM { return newEagerDyn(f, cs) }

func (f *fakeTM) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	if f.failSend > 0 && len(f.sends)+1 == f.failSend {
		return errFakeWire
	}
	f.sends = append(f.sends, append([]byte(nil), data...))
	return nil
}

func (f *fakeTM) SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error {
	for _, g := range group {
		if err := f.SendBuffer(a, cs, g); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeTM) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	f.failRecv--
	if f.failRecv == 0 {
		return errFakeWire
	}
	if len(f.recvs) == 0 {
		return errFakeWire
	}
	copy(dst, f.recvs[0])
	f.recvs = f.recvs[1:]
	return nil
}

func (f *fakeTM) ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error {
	for _, d := range dsts {
		if err := f.ReceiveBuffer(a, cs, d); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeTM) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	if f.static == 0 {
		return nil, ErrNoStatic
	}
	f.obtains++
	return make([]byte, f.static), nil
}

func (f *fakeTM) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	if f.static == 0 {
		return nil, ErrNoStatic
	}
	f.failRecv--
	if f.failRecv == 0 || len(f.recvs) == 0 {
		return nil, errFakeWire
	}
	buf := f.recvs[0]
	f.recvs = f.recvs[1:]
	return buf, nil
}

func (f *fakeTM) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	f.released = append(f.released, buf)
	if len(f.released) == f.failRelease {
		return errFakeWire
	}
	return nil
}

func (f *fakeTM) StaticSize() int { return f.static }

// TestEagerCommitNoDoubleSendAfterError is the eagerDyn.Commit satellite
// regression: when SendBuffer fails mid-flush, the blocks already sent
// must have left b.pending, so a later flush (the connection and its
// policy instance outlive the aborted message) cannot re-send them.
func TestEagerCommitNoDoubleSendAfterError(t *testing.T) {
	a := vclock.NewActor("t")
	tm := &fakeTM{failSend: 2}
	b := newEagerDyn(tm, nil)
	blks := [][]byte{pattern(8, 1), pattern(8, 2), pattern(8, 3)}
	for _, blk := range blks {
		if err := b.Pack(a, blk, SendLater, ReceiveCheaper); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(a); !errors.Is(err, errFakeWire) {
		t.Fatalf("Commit error = %v, want fake wire failure", err)
	}
	// Block 0 went out; block 1 hit the failure. Neither may still be
	// queued: only block 2 survives to the next flush.
	tm.failSend = 0
	if err := b.Commit(a); err != nil {
		t.Fatal(err)
	}
	if len(tm.sends) != 2 || !bytes.Equal(tm.sends[0], blks[0]) || !bytes.Equal(tm.sends[1], blks[2]) {
		t.Errorf("wire saw %d buffers, want exactly blocks 0 and 2 once each", len(tm.sends))
	}
	for _, s := range tm.sends[1:] {
		if bytes.Equal(s, blks[0]) {
			t.Error("block 0 was sent twice after a failed Commit")
		}
	}
}

// TestEagerCheckoutNoRefillAfterError is the mirrored receive-side
// regression: destinations already filled before a mid-loop failure must
// not be filled again from the stream by a later Checkout.
func TestEagerCheckoutNoRefillAfterError(t *testing.T) {
	a := vclock.NewActor("t")
	want := [][]byte{pattern(8, 1), pattern(8, 2), pattern(8, 3)}
	tm := &fakeTM{recvs: [][]byte{want[0], want[1], want[2]}, failRecv: 2}
	b := newEagerDyn(tm, nil)
	dsts := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	for _, d := range dsts {
		if err := b.Unpack(a, d, ReceiveCheaper); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Checkout(a); !errors.Is(err, errFakeWire) {
		t.Fatalf("Checkout error = %v, want fake wire failure", err)
	}
	if !bytes.Equal(dsts[0], want[0]) {
		t.Error("destination 0 was not filled before the failure")
	}
	if err := b.Checkout(a); err != nil {
		t.Fatal(err)
	}
	// dst 0 keeps its original fill and the retry pulls the next stream
	// buffer into dst 2 only — dst 1 was dropped with the failing call.
	if !bytes.Equal(dsts[0], want[0]) {
		t.Error("destination 0 was overwritten by a post-error Checkout")
	}
	if bytes.Equal(dsts[1], want[1]) {
		t.Error("destination 1 should have been dropped by the failing call")
	}
}

// TestStatCopyCheckoutNoRefillAfterError is the same regression for
// eagerDyn's static sibling: after a mid-loop failure the instance — which
// outlives the aborted message on the connection — must hold neither the
// destinations it already filled nor an incoming buffer it already gave
// back.
func TestStatCopyCheckoutNoRefillAfterError(t *testing.T) {
	a := vclock.NewActor("t")
	want := [][]byte{pattern(8, 1), pattern(8, 2), pattern(8, 3)}
	unpackAll := func(t *testing.T, b *statCopy, dsts [][]byte) {
		t.Helper()
		for _, d := range dsts {
			if err := b.Unpack(a, d, ReceiveCheaper); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("receive fails", func(t *testing.T) {
		tm := &fakeTM{static: 8, recvs: [][]byte{want[0], want[1], want[2]}, failRecv: 2}
		b := newStatCopy(tm, nil)
		dsts := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}
		unpackAll(t, b, dsts)
		if err := b.Checkout(a); !errors.Is(err, errFakeWire) {
			t.Fatalf("Checkout error = %v, want fake wire failure", err)
		}
		if !bytes.Equal(dsts[0], want[0]) {
			t.Fatal("destination 0 was not filled before the failure")
		}
		// The retry pulls the next stream buffer into dst 2 only: dst 0
		// keeps its fill and dst 1 went down with the failing call.
		if err := b.Checkout(a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dsts[0], want[0]) {
			t.Error("destination 0 was overwritten by a post-error Checkout")
		}
		if !bytes.Equal(dsts[1], make([]byte, 8)) {
			t.Error("destination 1 should have been dropped by the failing call")
		}
		if !bytes.Equal(dsts[2], want[1]) {
			t.Errorf("destination 2 = %v, want the next stream buffer", dsts[2])
		}
	})

	t.Run("release fails", func(t *testing.T) {
		tm := &fakeTM{static: 8, recvs: [][]byte{want[0], want[1]}, failRelease: 1}
		b := newStatCopy(tm, nil)
		dsts := [][]byte{make([]byte, 8), make([]byte, 8)}
		unpackAll(t, b, dsts)
		if err := b.Checkout(a); !errors.Is(err, errFakeWire) {
			t.Fatalf("Checkout error = %v, want fake wire failure", err)
		}
		// The next message must start from the stream, not from the buffer
		// whose release failed, and must not release that buffer again.
		next := make([]byte, 8)
		unpackAll(t, b, [][]byte{next})
		if err := b.Checkout(a); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(next, want[1]) {
			t.Errorf("next message read %v, want the next stream buffer", next)
		}
		if !bytes.Equal(dsts[1], make([]byte, 8)) {
			t.Error("the aborted message's destination was filled by the next message")
		}
		if len(tm.released) != 2 || &tm.released[0][0] == &tm.released[1][0] {
			t.Errorf("released %d buffers, want each of the two exactly once", len(tm.released))
		}
	})
}

// TestStatCopyEmptyPackLeasesNothing is the statCopy.Pack satellite
// regression: a zero-length block must not obtain (lease) a static
// buffer it will never fill.
func TestStatCopyEmptyPackLeasesNothing(t *testing.T) {
	a := vclock.NewActor("t")
	tm := &fakeTM{static: 64}
	b := newStatCopy(tm, nil)
	if err := b.Pack(a, nil, SendCheaper, ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	if err := b.Pack(a, []byte{}, SendLater, ReceiveExpress); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(a); err != nil {
		t.Fatal(err)
	}
	if tm.obtains != 0 {
		t.Errorf("empty packs obtained %d static buffers, want 0", tm.obtains)
	}
	if len(tm.sends) != 0 {
		t.Errorf("empty packs flushed %d buffers, want 0", len(tm.sends))
	}
	// A real block after the empties still works and leases exactly once.
	data := pattern(10, 5)
	if err := b.Pack(a, data, SendCheaper, ReceiveExpress); err != nil {
		t.Fatal(err)
	}
	if tm.obtains != 1 || len(tm.sends) != 1 || !bytes.Equal(tm.sends[0], data) {
		t.Errorf("after real pack: obtains=%d sends=%d", tm.obtains, len(tm.sends))
	}
}
