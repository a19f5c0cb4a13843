package core

import (
	"bytes"
	"errors"
	"testing"

	"madeleine2/internal/vclock"
)

// requireModeError checks that err is the *ModeError of op with the pair.
func requireModeError(t *testing.T, err error, op string, sm SendMode, rm RecvMode) {
	t.Helper()
	var me *ModeError
	if !errors.As(err, &me) || me.Op != op || me.Send != sm || me.Recv != rm {
		t.Fatalf("%s(%v, %v) = %v, want a *ModeError naming the pair", op, sm, rm, err)
	}
}

// TestModesOutsideTable1Rejected: a mode outside Table 1 fails Pack and
// Unpack with a *ModeError, on a Table-1 handle, in a scope and on the
// submission path, and aborts the message: End… reports ErrBadState, the
// lease is back and nothing reached the wire, so the connection carries
// the next message. RecvMode(SendLater) is one family's constant
// converted into the other's argument; such a conversion is caught when
// it lands outside the target family's range.
func TestModesOutsideTable1Rejected(t *testing.T) {
	pairs := []struct {
		sm SendMode
		rm RecvMode
	}{
		{7, ReceiveCheaper},
		{-1, ReceiveExpress},
		{SendCheaper, 3},
		{SendSafer, RecvMode(SendLater)},
	}
	msg := []block{{pattern(64, 1), SendCheaper, ReceiveExpress}}
	for _, p := range pairs {
		chans, sess := newTestChannel(t, "sisci")
		s, r := vclock.NewActor("s"), vclock.NewActor("r")

		cn, err := chans[0].BeginPacking(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		requireModeError(t, cn.Pack(msg[0].data, p.sm, p.rm), "Pack", p.sm, p.rm)
		if err := cn.EndPacking(); !errors.Is(err, ErrBadState) {
			t.Fatalf("EndPacking after the rejected Pack: %v, want ErrBadState", err)
		}
		requireFindings(t, sess)

		err = chans[0].Send(s, 1, func(cn *Connection) error {
			return cn.Pack(msg[0].data, p.sm, p.rm)
		})
		requireModeError(t, err, "Pack", p.sm, p.rm)
		requireFindings(t, sess)

		cq := NewCQ()
		am, err := chans[0].SubmitPacking(1, cq)
		if err != nil {
			t.Fatal(err)
		}
		am.SubmitPack(msg[0].data, p.sm, p.rm)
		am.SubmitEnd()
		c, _ := cq.Wait()
		requireModeError(t, c.Err, "Pack", p.sm, p.rm)
		if c, _ := cq.Wait(); !errors.Is(c.Err, ErrBadState) {
			t.Fatalf("SubmitEnd after the rejected SubmitPack: %v, want ErrBadState", c.Err)
		}
		requireFindings(t, sess)

		// None of the three rejected sends was announced: the first message
		// the receiver sees is the legal one.
		sendMsg(t, chans[0], s, 1, msg)
		err = chans[1].Recv(r, func(cn *Connection) error {
			return cn.Unpack(make([]byte, 64), p.sm, p.rm)
		})
		requireModeError(t, err, "Unpack", p.sm, p.rm)
		requireFindings(t, sess)
		sess.Shutdown()
	}
}

// TestSendLaterCommit: a send_LATER block is read when its message
// commits. In a Send scope the commit follows the closure, so a write
// after Pack inside it reaches the receiver. A Table-1 caller that packs
// LATER and has not ended the message leaves it open, and CheckQuiescent
// names it; EndPacking then sends the written value.
func TestSendLaterCommit(t *testing.T) {
	chans, sess := newTestChannel(t, "sisci")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	buf := pattern(64, 1)
	later := []block{{buf, SendLater, ReceiveCheaper}}

	err := chans[0].Send(s, 1, func(cn *Connection) error {
		if err := cn.Pack(buf, SendLater, ReceiveCheaper); err != nil {
			return err
		}
		buf[0] = 0xEE
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := recvMsg(t, chans[1], r, later); got[0][0] != 0xEE {
		t.Fatalf("LATER block written in its Send scope arrived as %#x, want 0xee", got[0][0])
	}
	requireFindings(t, sess)

	cn, err := chans[0].BeginPacking(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.Pack(buf, SendLater, ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xDD
	requireFindings(t, sess,
		`channel "test-sisci" 0->1 send: lease held`,
		`channel "test-sisci" 0->1 send: message open`,
		`channel "test-sisci" 0->1 send: 1 sisci-short buffers obtained and not sent`,
	)
	if err := cn.EndPacking(); err != nil {
		t.Fatal(err)
	}
	if got := recvMsg(t, chans[1], r, later); got[0][0] != 0xDD {
		t.Fatalf("LATER block written before EndPacking arrived as %#x, want 0xdd", got[0][0])
	}
	requireFindings(t, sess)
}

// TestExpressAfterCheaper: §2.2 allows any combination of modes, so a
// receive_EXPRESS block may follow receive_CHEAPER ones in a message. It
// costs the pipelining of the blocks before it, but on every driver the
// express block is complete when its Unpack returns, and the cheaper one
// by EndUnpacking.
func TestExpressAfterCheaper(t *testing.T) {
	for _, drv := range Drivers() {
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			cheap, express := pattern(5000, 1), pattern(16, 2)
			sent := make(chan error, 1)
			go func() {
				sent <- chans[0].Send(s, 1, func(cn *Connection) error {
					if err := cn.Pack(cheap, SendCheaper, ReceiveCheaper); err != nil {
						return err
					}
					return cn.Pack(express, SendCheaper, ReceiveExpress)
				})
			}()
			gotCheap, gotExpress := make([]byte, len(cheap)), make([]byte, len(express))
			err := chans[1].Recv(r, func(cn *Connection) error {
				if err := cn.Unpack(gotCheap, SendCheaper, ReceiveCheaper); err != nil {
					return err
				}
				if err := cn.Unpack(gotExpress, SendCheaper, ReceiveExpress); err != nil {
					return err
				}
				if !bytes.Equal(gotExpress, express) {
					t.Error("express block incomplete when its Unpack returned")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCheap, cheap) {
				t.Error("cheaper block before the express one corrupted")
			}
		})
	}
}

// TestModeErrorMidMessage: a *ModeError after a delayed block aborts the
// message, and the abort drops what the message still had delayed, on
// every built-in driver and under each BMM policy of the in-memory
// driver. Send side: the held block (CHEAPER in an aggregate or a static
// buffer, LATER anywhere) never reaches the wire, a partly filled static
// buffer goes back unsent, the message is not announced, and the receiver
// takes the next message byte-exact. Receive side: the deferred
// destination is dropped, so the next reception fills only its own.
func TestModeErrorMidMessage(t *testing.T) {
	drivers := Drivers()
	for _, policy := range []string{"eager", "aggr", "static"} {
		drivers = append(drivers, registerMemDriver(t, policy))
	}
	stale, fresh := bytes.Repeat([]byte{0xAA}, 8), bytes.Repeat([]byte{0x55}, 8)
	next := []block{{fresh, SendCheaper, ReceiveExpress}}
	for _, drv := range drivers {
		t.Run(drv+"/send", func(t *testing.T) {
			for _, sm := range []SendMode{SendCheaper, SendLater} {
				chans, sess := newTestChannel(t, drv)
				s, r := vclock.NewActor("s"), vclock.NewActor("r")
				tm := chans[0].pmm.Select(len(stale), sm, ReceiveCheaper)
				if _, eager := tm.NewBMM(new(ConnState)).(*eagerDyn); eager && sm == SendCheaper {
					continue // the eager policy sends a CHEAPER block at once
				}
				cn, err := chans[0].BeginPacking(s, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := cn.Pack(stale, sm, ReceiveCheaper); err != nil {
					t.Fatal(err)
				}
				requireModeError(t, cn.Pack(stale, 7, ReceiveCheaper), "Pack", 7, ReceiveCheaper)
				if n := chans[1].ann.Len(); n != 0 {
					t.Fatalf("%v block: the aborted message left %d announcements", sm, n)
				}
				sent := make(chan struct{})
				go func() { defer close(sent); sendMsg(t, chans[0], s, 1, next) }()
				if got := recvMsg(t, chans[1], r, next); !bytes.Equal(got[0], fresh) {
					t.Fatalf("%v block: the next message arrived as %x, want %x", sm, got[0], fresh)
				}
				<-sent
				requireFindings(t, sess)
			}
		})
		t.Run(drv+"/receive", func(t *testing.T) {
			chans, sess := newTestChannel(t, drv)
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				sendMsg(t, chans[0], s, 1, []block{{stale, SendCheaper, ReceiveExpress}})
				sendMsg(t, chans[0], s, 1, next)
			}()
			cn, err := chans[1].BeginUnpacking(r)
			if err != nil {
				t.Fatal(err)
			}
			aborted := make([]byte, len(stale))
			if err := cn.Unpack(aborted, SendCheaper, ReceiveCheaper); err != nil {
				t.Fatal(err)
			}
			requireModeError(t, cn.Unpack(aborted, 7, ReceiveCheaper), "Unpack", 7, ReceiveCheaper)
			// The aborted reception spent the first message's announcement
			// and read none of its bytes (a rendezvous sender still waits
			// on them): announce it again by hand and read them.
			chans[1].ann.Push(0)
			got := recvMsg(t, chans[1], r, []block{{stale, SendCheaper, ReceiveExpress}})
			if !bytes.Equal(aborted, make([]byte, len(stale))) {
				t.Fatalf("a later reception wrote %x into the aborted one's buffer", aborted)
			}
			if !bytes.Equal(got[0], stale) {
				t.Fatalf("the reception after the abort read %x, want the first message's %x", got[0], stale)
			}
			if got := recvMsg(t, chans[1], r, next); !bytes.Equal(got[0], fresh) {
				t.Fatalf("the second message arrived as %x, want %x", got[0], fresh)
			}
			<-sent
			requireFindings(t, sess)
		})
	}
}
