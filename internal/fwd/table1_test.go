package fwd

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/vclock"
)

// A virtual channel's messages are core messages on its VC channel, so
// they follow Table 1 and core's abort contract like any other channel's.

// TestVCModeErrorAborts packs a block with a send mode outside Table 1
// after two packets of the message have left: Pack fails with
// *core.ModeError and aborts the message. Core announced the message at
// its first send, so the receiver, reading it as it would any message,
// fails on the sender's abort; the next message then arrives intact and
// the session ends at rest.
func TestVCModeErrorAborts(t *testing.T) {
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("modes", packMTU))
	first := 2*packMTU + 10
	conn, err := vcs[0].BeginPacking(vclock.NewActor("s"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Pack(pattern(first, 1), core.SendCheaper, core.ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	var me *core.ModeError
	if err := conn.Pack(pattern(10, 2), core.SendMode(7), core.ReceiveCheaper); !errors.As(err, &me) {
		t.Fatalf("Pack with send mode 7: %v, want *core.ModeError", err)
	}
	if err := conn.EndPacking(); !errors.Is(err, core.ErrBadState) {
		t.Fatalf("EndPacking after the abort: %v, want ErrBadState", err)
	}
	next := pattern(3*packMTU, 3)
	sent := make(chan error, 1)
	go func() {
		sent <- vcs[0].Channel().Send(vclock.NewActor("s"), 4, func(conn *core.Connection) error {
			return conn.Pack(next, core.SendCheaper, core.ReceiveCheaper)
		})
	}()
	r := vclock.NewActor("r")
	err = vcs[4].Channel().Recv(r, func(conn *core.Connection) error {
		if err := conn.Unpack(make([]byte, first), core.SendCheaper, core.ReceiveCheaper); err != nil {
			return err
		}
		return conn.Unpack(make([]byte, 10), core.SendCheaper, core.ReceiveCheaper)
	})
	if err == nil || !strings.Contains(err.Error(), "aborted by its sender") {
		t.Fatalf("receiving the aborted message: %v, want the sender's abort", err)
	}
	got := make([]byte, len(next))
	if err := vcs[4].Channel().Recv(r, func(conn *core.Connection) error {
		return conn.Unpack(got, core.SendCheaper, core.ReceiveCheaper)
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, next) {
		t.Fatal("the message after the abort arrived corrupted")
	}
	requireQuiescent(t, sess, vcs)
}

// TestVCReceiveAbortDrains aborts a reception in mid-message with a
// receive mode outside Table 1: the reception drains the rest of the
// message, so the next one arrives intact. A reception that ends with
// packets unread, here on a packet boundary, reports their bytes as
// asymmetry and drains the same way.
func TestVCReceiveAbortDrains(t *testing.T) {
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("rabort", packMTU))
	s := vclock.NewActor("s")
	sent := make(chan error, 2)
	go func() {
		for range 2 {
			sent <- vcs[0].Channel().Send(s, 4, func(conn *core.Connection) error {
				return conn.Pack(pattern(3*packMTU, 1), core.SendCheaper, core.ReceiveCheaper)
			})
		}
	}()
	r := vclock.NewActor("r")
	var me *core.ModeError
	err := vcs[4].Channel().Recv(r, func(conn *core.Connection) error {
		if err := conn.Unpack(make([]byte, packMTU/2), core.SendCheaper, core.ReceiveExpress); err != nil {
			return err
		}
		return conn.Unpack(make([]byte, 10), core.SendCheaper, core.RecvMode(7))
	})
	if !errors.As(err, &me) {
		t.Fatalf("Unpack with receive mode 7: %v, want *core.ModeError", err)
	}
	err = vcs[4].Channel().Recv(r, func(conn *core.Connection) error {
		return conn.Unpack(make([]byte, packMTU), core.SendCheaper, core.ReceiveCheaper)
	})
	if want := fmt.Sprintf("%d unconsumed bytes", 2*packMTU); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a short reception: %v, want %q", err, want)
	}
	for range 2 {
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
	oneWay(t, vcs, 0, 4, 2*packMTU+5)
	requireQuiescent(t, sess, vcs)
}

// TestVCAbortReturnsFrame fails a Pack in mid-message: the gateway's
// handle closes after the first block was staged, so the second block's
// first packet cannot leave. The abort must give the staged tail's frame
// back to the handle and leave nothing open.
func TestVCAbortReturnsFrame(t *testing.T) {
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("leak", packMTU))
	conn, err := vcs[0].BeginPacking(vclock.NewActor("s"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Pack(pattern(10, 1), core.SendCheaper, core.ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	vcs[2].Close()
	if err := conn.Pack(pattern(2*packMTU, 2), core.SendCheaper, core.ReceiveCheaper); err == nil {
		t.Fatal("a packet toward a closed gateway was sent")
	}
	if n := len(vcs[0].frames); n != 1 {
		t.Errorf("the sender's handle holds %d idle frames after the abort, want the staged tail's 1", n)
	}
	if err := conn.EndPacking(); !errors.Is(err, core.ErrBadState) {
		t.Errorf("EndPacking after the abort: %v, want ErrBadState", err)
	}
	requireQuiescent(t, sess, vcs)
}

// TestVCEmptyBlocksMessage sends a message of empty blocks, which core
// accepts and the Generic TM sends as one header-only packet, then a
// message with data: the receiver reads the empty one whole and the next
// one intact. A message with no block at all is ErrEmptyMessage.
func TestVCEmptyBlocksMessage(t *testing.T) {
	sess := twoClusters(t)
	vcs := newVC(t, sess, sciMyriSpec("empty", packMTU))
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	err := vcs[0].Channel().Send(s, 4, func(conn *core.Connection) error { return nil })
	if !errors.Is(err, core.ErrEmptyMessage) {
		t.Fatalf("a message with no Pack: %v, want ErrEmptyMessage", err)
	}
	sent := make(chan error, 1)
	go func() {
		sent <- vcs[0].Channel().Send(s, 4, func(conn *core.Connection) error {
			if err := conn.Pack(nil, core.SendCheaper, core.ReceiveExpress); err != nil {
				return err
			}
			return conn.Pack([]byte{}, core.SendCheaper, core.ReceiveCheaper)
		})
	}()
	conn, err := vcs[4].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Unpack(nil, core.SendCheaper, core.ReceiveExpress); err != nil {
		t.Fatal(err)
	}
	if err := conn.Unpack([]byte{}, core.SendCheaper, core.ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	if err := conn.EndUnpacking(); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	oneWay(t, vcs, 0, 4, 2*packMTU+3)
	requireQuiescent(t, sess, vcs)
}

// TestVCAsyncConversation runs a message through the progress engine on
// both ends of the VC channel: the bytes delivered are those of the
// synchronous form, in reliable mode too.
func TestVCAsyncConversation(t *testing.T) {
	for _, rel := range []bool{false, true} {
		sess := twoClusters(t)
		spec := sciMyriSpec("async", packMTU)
		spec.Reliable = rel
		vcs := newVC(t, sess, spec)
		hdr, body := pattern(16, 3), pattern(5*packMTU+7, 4)
		gotHdr, gotBody := make([]byte, len(hdr)), make([]byte, len(body))

		scq, rcq := core.NewCQ(), core.NewCQ()
		recv := vcs[4].Channel().SubmitUnpacking(rcq)
		recv.SubmitUnpack(gotHdr, core.SendCheaper, core.ReceiveExpress)
		recv.SubmitUnpack(gotBody, core.SendCheaper, core.ReceiveCheaper)
		recv.SubmitEnd()
		send, err := vcs[0].Channel().SubmitPackingFrom(4, scq, 0)
		if err != nil {
			t.Fatal(err)
		}
		send.SubmitPack(hdr, core.SendCheaper, core.ReceiveExpress)
		send.SubmitPack(body, core.SendCheaper, core.ReceiveCheaper)
		send.SubmitEnd()
		for _, cq := range []*core.CQ{scq, rcq} {
			for {
				c, ok := cq.Wait()
				if !ok || c.Err != nil {
					t.Fatalf("reliable=%v: completion %+v (ok %v)", rel, c, ok)
				}
				if c.Kind == core.OpEnd {
					break
				}
			}
		}
		if !bytes.Equal(gotHdr, hdr) || !bytes.Equal(gotBody, body) {
			t.Errorf("reliable=%v: the asynchronous conversation delivered other bytes", rel)
		}
		sess.Shutdown()
		requireQuiescent(t, sess, vcs)
	}
}
