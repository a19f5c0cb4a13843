package core

import (
	"fmt"
	"testing"

	"madeleine2/internal/vclock"
)

// table1Lane is one warm connection carrying the paper's Table 1 message
// (an 8-byte receive_EXPRESS header, then a 1 KiB receive_CHEAPER body)
// from rank 0 to a receiver goroutine on rank 1, one message per call of
// oneMessage, through Begin…/End… or, when scoped, through Send/Recv.
// Everything a message needs is allocated here, so what the gate counts
// is the library's own.
type table1Lane struct {
	send      *Channel
	s         *vclock.Actor
	hdr, body []byte
	scoped    bool
	next      chan struct{}
	done      chan error
}

func newTable1Lane(t testing.TB, chans map[int]*Channel) *table1Lane {
	return newLane(t, chans, 1024, false)
}

// newLane is newTable1Lane with a body of the given length.
func newLane(t testing.TB, chans map[int]*Channel, body int, scoped bool) *table1Lane {
	t.Helper()
	l := &table1Lane{
		send: chans[0], s: vclock.NewActor("s"),
		hdr: pattern(8, 1), body: pattern(body, 2), scoped: scoped,
		next: make(chan struct{}), done: make(chan error),
	}
	recv, r := chans[1], vclock.NewActor("r")
	rhdr, rbody := make([]byte, 8), make([]byte, body)
	unpack := func(cn *Connection) error {
		if err := cn.Unpack(rhdr, SendCheaper, ReceiveExpress); err != nil {
			return err
		}
		return cn.Unpack(rbody, SendCheaper, ReceiveCheaper)
	}
	go func() {
		for range l.next {
			if scoped {
				l.done <- recv.Recv(r, unpack)
				continue
			}
			l.done <- func() error {
				cn, err := recv.BeginUnpacking(r)
				if err != nil {
					return err
				}
				if err := unpack(cn); err != nil {
					return err
				}
				return cn.EndUnpacking()
			}()
		}
	}()
	t.Cleanup(func() { close(l.next) })
	return l
}

func (l *table1Lane) oneMessage() error {
	l.next <- struct{}{}
	if err := l.sendOne(); err != nil {
		return err
	}
	return <-l.done
}

func (l *table1Lane) sendOne() error {
	pack := func(cn *Connection) error {
		if err := cn.Pack(l.hdr, SendCheaper, ReceiveExpress); err != nil {
			return err
		}
		return cn.Pack(l.body, SendCheaper, ReceiveCheaper)
	}
	if l.scoped {
		return l.send.Send(l.s, 1, pack)
	}
	cn, err := l.send.BeginPacking(l.s, 1)
	if err != nil {
		return err
	}
	if err := pack(cn); err != nil {
		return err
	}
	return cn.EndPacking()
}

// TestTable1Lane runs the lane's two goroutines through a few hundred
// Table-1 messages per driver, in both forms, so the race detector sees
// the path a message takes once everything it needs was resolved at
// connect: the TM slices, the simnet peer and lane tables and the drivers'
// per-connection handles.
func TestTable1Lane(t *testing.T) {
	for _, drv := range Drivers() {
		for _, scoped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/scoped=%v", drv, scoped), func(t *testing.T) {
				chans, sess := newTestChannel(t, drv)
				l := newLane(t, chans, 1024, scoped)
				for i := 0; i < 200; i++ {
					if err := l.oneMessage(); err != nil {
						t.Fatalf("message %d: %v", i, err)
					}
				}
				if err := sess.CheckQuiescent(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkTable1Message is the host cost of one Table-1 message (an
// 8-byte receive_EXPRESS header and a 1 KiB receive_CHEAPER body) through
// Begin…/End… on each driver, sender and receiver on their own
// goroutines:
//
//	go test -run '^$' -bench Table1Message ./internal/core/
//
// With -cpuprofile it shows where a message's host time goes.
func BenchmarkTable1Message(b *testing.B) {
	for _, drv := range Drivers() {
		b.Run(drv, func(b *testing.B) {
			sess := NewSession(testWorld(2))
			chans, err := sess.NewChannel(ChannelSpec{Name: "bench-" + drv, Driver: drv})
			if err != nil {
				b.Fatal(err)
			}
			l := newTable1Lane(b, chans)
			for i := 0; i < 200; i++ { // past every ring's first cycle
				if err := l.oneMessage(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.oneMessage(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
