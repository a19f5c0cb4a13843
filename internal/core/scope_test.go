package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// fakePMM drives every block of a channel through one TM.
type fakePMM struct{ tm TM }

func (p fakePMM) Name() string                      { return "fake" }
func (p fakePMM) Select(int, SendMode, RecvMode) TM { return p.tm }
func (p fakePMM) TMs() []TM                         { return []TM{p.tm} }
func (p fakePMM) PreConnect(*ConnState) error       { return nil }
func (p fakePMM) Connect(*ConnState) error          { return nil }

// newFakeChannel opens a two-rank channel whose ranks both run tm: rank 0's
// sends land in tm.sends, rank 1's receives read tm.recvs.
func newFakeChannel(t *testing.T, tm *fakeTM) (map[int]*Channel, *Session) {
	t.Helper()
	name := "fake-" + t.Name()
	err := RegisterDriver(DriverDef{
		Name:  name,
		Probe: func(*simnet.Node, int) error { return nil },
		New: func(*simnet.Node, int, int) (PMM, error) {
			return fakePMM{tm}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { UnregisterDriver(name) })
	return newTestChannel(t, name)
}

// waitParked returns once an acquirer is parked on l. It fails instead if
// that acquirer's scope reports it entered its closure first, or if
// nothing parks within ten seconds, so a broken lease rule fails the test
// rather than hanging it.
func waitParked(t *testing.T, l lease, entered <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, parked := l.state(); parked > 0 {
			return
		}
		select {
		case <-entered:
			t.Fatal("the second scope entered its closure while the aborted scope was still running: the slot's lease was released by the abort")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the second scope never parked on the lease")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScopeHoldsLeaseAfterAbort pins the slot's abort contract. Actor A's
// scope has its first Pack (or Unpack) fail through a scripted TM and then
// keeps running; actor B's scope on the same connection direction must stay
// parked until A's closure returns, because B would otherwise reinitialise
// the slot A still holds. A's handle stays closed, A's scope reports the
// TM's error, B's message is carried byte-exact, and the session ends at
// rest.
func TestScopeHoldsLeaseAfterAbort(t *testing.T) {
	msg := pattern(64, 2)
	for _, tc := range []struct {
		dir   string
		tm    *fakeTM
		scope func(chans map[int]*Channel, a *vclock.Actor, f func(*Connection) error) error
		lease func(chans map[int]*Channel) lease
		step  func(cn *Connection, buf []byte) error
	}{{
		dir: "send",
		tm:  &fakeTM{failSend: 1},
		scope: func(chans map[int]*Channel, a *vclock.Actor, f func(*Connection) error) error {
			return chans[0].Send(a, 1, f)
		},
		lease: func(chans map[int]*Channel) lease { return chans[0].conns[1].send },
		step: func(cn *Connection, buf []byte) error {
			return cn.Pack(buf, SendCheaper, ReceiveExpress)
		},
	}, {
		dir: "receive",
		tm:  &fakeTM{recvs: [][]byte{msg}, failRecv: 1},
		scope: func(chans map[int]*Channel, a *vclock.Actor, f func(*Connection) error) error {
			return chans[1].Recv(a, f)
		},
		lease: func(chans map[int]*Channel) lease { return chans[1].conns[0].recv },
		step: func(cn *Connection, buf []byte) error {
			return cn.Unpack(buf, SendCheaper, ReceiveExpress)
		},
	}} {
		t.Run(tc.dir, func(t *testing.T) {
			chans, sess := newFakeChannel(t, tc.tm)
			if tc.dir == "receive" {
				// Two messages from rank 0, announced by hand: the fake
				// TM's receive side reads its canned stream, not a wire.
				chans[1].ann.Push(0)
				chans[1].ann.Push(0)
			}
			aborted, hold := make(chan struct{}), make(chan struct{})
			var second error
			aDone := make(chan error, 1)
			go func() {
				aDone <- tc.scope(chans, vclock.NewActor("a"), func(cn *Connection) error {
					err := tc.step(cn, make([]byte, len(msg)))
					close(aborted)
					<-hold
					second = tc.step(cn, make([]byte, len(msg)))
					return err
				})
			}()
			<-aborted
			tc.tm.failSend = 0 // B's send goes through

			entered, got := make(chan struct{}), make([]byte, len(msg))
			if tc.dir == "send" {
				copy(got, msg)
			}
			bDone := make(chan error, 1)
			go func() {
				bDone <- tc.scope(chans, vclock.NewActor("b"), func(cn *Connection) error {
					close(entered)
					return tc.step(cn, got)
				})
			}()
			waitParked(t, tc.lease(chans), entered)
			close(hold)

			if err := <-aDone; !errors.Is(err, errFakeWire) {
				t.Errorf("aborted scope returned %v, want the TM's failure", err)
			}
			if !errors.Is(second, ErrBadState) {
				t.Errorf("a second step on the aborted handle returned %v, want ErrBadState", second)
			}
			if err := <-bDone; err != nil {
				t.Fatalf("the parked scope: %v", err)
			}
			if tc.dir == "send" {
				if len(tc.tm.sends) != 1 || !bytes.Equal(tc.tm.sends[0], msg) {
					t.Errorf("wire carried %d buffers, want B's message alone, byte-exact", len(tc.tm.sends))
				}
			} else if !bytes.Equal(got, msg) {
				t.Error("B's message was not received byte-exact")
			}
			requireFindings(t, sess)
		})
	}
}

// TestRetainedScopeHandle keeps the slots a Send and a Recv lent their
// closures and uses them after the scopes have returned: every call reports
// ErrBadState, neither direction's lease moves, the session is at rest,
// and the connection still carries the next message.
func TestRetainedScopeHandle(t *testing.T) {
	chans, sess := newTestChannel(t, "sisci")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	msg := []block{{pattern(64, 1), SendCheaper, ReceiveExpress}}
	var sc, rc *Connection
	sent := make(chan error, 1)
	go func() {
		sent <- chans[0].Send(s, 1, func(cn *Connection) error {
			sc = cn
			return cn.Pack(msg[0].data, msg[0].sm, msg[0].rm)
		})
	}()
	err := chans[1].Recv(r, func(cn *Connection) error {
		rc = cn
		return cn.Unpack(make([]byte, 64), msg[0].sm, msg[0].rm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}

	// A free lease's queued token is its release stamp.
	stamp := func(l lease) vclock.Time {
		t, _ := l.q.TryPop()
		l.q.Push(t)
		return t
	}
	send, recv := chans[0].conns[1].send, chans[1].conns[0].recv
	stamps := [2]vclock.Time{stamp(send), stamp(recv)}
	// A release would now stamp the lease with the actor's later clock.
	s.Advance(vclock.Micros(100))
	r.Advance(vclock.Micros(100))
	for name, err := range map[string]error{
		"Pack":         sc.Pack(msg[0].data, msg[0].sm, msg[0].rm),
		"EndPacking":   sc.EndPacking(),
		"Unpack":       rc.Unpack(make([]byte, 64), msg[0].sm, msg[0].rm),
		"EndUnpacking": rc.EndUnpacking(),
	} {
		if !errors.Is(err, ErrBadState) {
			t.Errorf("%s on a retained scope handle: %v, want ErrBadState", name, err)
		}
	}
	if got := [2]vclock.Time{stamp(send), stamp(recv)}; got != stamps {
		t.Errorf("lease stamps moved from %v to %v: a retained handle released a lease", stamps, got)
	}
	requireFindings(t, sess)
	sendMsg(t, chans[0], s, 1, msg)
	recvMsg(t, chans[1], r, msg)
	requireFindings(t, sess)
}
