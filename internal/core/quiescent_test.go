package core

import (
	"errors"
	"strings"
	"testing"

	"madeleine2/internal/vclock"
)

// requireFindings checks that CheckQuiescent reports exactly the given
// lines, in order; none means the session must be at rest.
func requireFindings(t *testing.T, sess *Session, want ...string) {
	t.Helper()
	err := sess.CheckQuiescent()
	if len(want) == 0 {
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	if err == nil {
		t.Fatalf("CheckQuiescent = nil, want %q", want)
	}
	lines := strings.Split(err.Error(), "\n\t")[1:]
	if strings.Join(lines, "|") != strings.Join(want, "|") {
		t.Fatalf("CheckQuiescent reports\n\t%s\nwant\n\t%s", strings.Join(lines, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// TestCheckQuiescent leaves each kind of scope open — a Table-1 send and a
// Table-1 receive begun and not ended, an async conversation with no
// SubmitEnd, parked and then holding its lease — checks that each is
// reported with its channel, ranks and direction, and that the session is
// at rest once they end. The scoped forms and an aborted message must
// leave nothing behind whatever their closure or Pack returns.
func TestCheckQuiescent(t *testing.T) {
	chans, sess := newTestChannel(t, "sisci")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	msg := []block{{pattern(64, 1), SendCheaper, ReceiveExpress}}
	requireFindings(t, sess)

	// A receive begun, its block read, and never ended.
	sendMsg(t, chans[0], s, 1, msg)
	rc, err := chans[1].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Unpack(make([]byte, 64), SendCheaper, ReceiveExpress); err != nil {
		t.Fatal(err)
	}
	// A send begun and never ended, and an async conversation parked
	// behind it.
	sc, err := chans[0].BeginPacking(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	cq := NewCQ()
	am, err := chans[0].SubmitPacking(1, cq)
	if err != nil {
		t.Fatal(err)
	}
	requireFindings(t, sess,
		`channel "test-sisci" 0->1 send: lease held`,
		`channel "test-sisci" 0->1 send: 1 acquirers parked on the lease`,
		`channel "test-sisci" 0->1 send: message open`,
		`channel "test-sisci" 1->0 receive: lease held`,
	)

	// Ending the Table-1 send grants the conversation, which now holds
	// the lease without a SubmitEnd.
	if err := sc.EndPacking(); !errors.Is(err, ErrEmptyMessage) {
		t.Fatalf("EndPacking of an empty message: %v", err)
	}
	if err := rc.EndUnpacking(); err != nil {
		t.Fatal(err)
	}
	am.SubmitPack(msg[0].data, msg[0].sm, msg[0].rm)
	if c, _ := cq.Wait(); c.Err != nil {
		t.Fatal(c.Err)
	}
	err = sess.CheckQuiescent()
	for _, want := range []string{`channel "test-sisci" 0->1 send: lease held`, `channel "test-sisci" 0->1 send: message open`} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("async conversation with no SubmitEnd: CheckQuiescent = %v, want %q", err, want)
		}
	}
	am.SubmitEnd()
	if c, _ := cq.Wait(); c.Err != nil {
		t.Fatal(c.Err)
	}
	recvMsg(t, chans[1], r, msg)
	requireFindings(t, sess)

	// The scoped forms end the message whatever f returns. Each is checked
	// before the connection is used again, so a scope left open fails the
	// check instead of wedging the next Begin….
	errScope := errors.New("scope body failed")
	if err := chans[0].Send(s, 1, func(*Connection) error { return errScope }); err != errScope {
		t.Fatalf("Send = %v, want the closure's error", err)
	}
	requireFindings(t, sess)
	sendMsg(t, chans[0], s, 1, msg)
	err = chans[1].Recv(r, func(cn *Connection) error {
		if err := cn.Unpack(make([]byte, 64), SendCheaper, ReceiveExpress); err != nil {
			return err
		}
		return errScope
	})
	if err != errScope {
		t.Fatalf("Recv = %v, want the closure's error", err)
	}
	requireFindings(t, sess)

	// A Pack that fails aborts the message, which releases the lease.
	chans[1].Close()
	err = chans[0].Send(s, 1, func(cn *Connection) error {
		return cn.Pack(msg[0].data, msg[0].sm, msg[0].rm)
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("send toward a closed peer: %v, want ErrClosed", err)
	}
	requireFindings(t, sess)
}

// TestCheckQuiescentSBP: a kernel buffer lent across the wire is the
// sender's until the receiver releases it, so a message sent and not yet
// received leaves the sender's endpoint not at rest, named in one line,
// and the line goes once the message is received.
func TestCheckQuiescentSBP(t *testing.T) {
	chans, sess := newTestChannel(t, "sbp")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	msg := []block{{pattern(64, 1), SendCheaper, ReceiveExpress}}
	sendMsg(t, chans[0], s, 1, msg)
	requireFindings(t, sess, "sbp node 0 adapter 0: 1 of 8 kernel buffers not home (obtained and not sent, or sent and not released)")
	recvMsg(t, chans[1], r, msg)
	requireFindings(t, sess)
}

// TestCheckQuiescentRegions: a via NIC or rdma HCA pins its channels'
// rings and the registrations their connections keep for large blocks,
// and nothing else at rest. A region registered beyond those and never
// released is reported in one line naming the adapter; a kept one is
// not, and the line goes once the region is deregistered. Two channels
// share each adapter, so the line counts the rings of both.
func TestCheckQuiescentRegions(t *testing.T) {
	for _, tc := range []struct {
		drv  string
		line string
		leak func(*Channel, *vclock.Actor) (release func() error)
	}{
		{"via", "via node 1 adapter 0: 58 regions registered, 57 held by its channels' rings and kept registrations",
			func(c *Channel, a *vclock.Actor) func() error {
				return c.pmm.(*viaPMM).nic.Register(a, make([]byte, 64)).Deregister
			}},
		{"rdma", "rdma node 1 adapter 0: 8 regions registered, 7 held by its channels' rings and kept registrations",
			func(c *Channel, a *vclock.Actor) func() error {
				m, err := c.pmm.(*rdmaPMM).hca.Register(a, 1<<31, make([]byte, 64))
				if err != nil {
					t.Fatal(err)
				}
				return m.Deregister
			}},
	} {
		t.Run(tc.drv, func(t *testing.T) {
			chans, sess := newTestChannel(t, tc.drv)
			if _, err := sess.NewChannel(ChannelSpec{Name: "second-" + tc.drv, Driver: tc.drv}); err != nil {
				t.Fatal(err)
			}
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			msg := []block{{pattern(64<<10, 1), SendCheaper, ReceiveCheaper}}
			done := make(chan struct{})
			go func() {
				defer close(done)
				recvMsg(t, chans[1], r, msg)
			}()
			sendMsg(t, chans[0], s, 1, msg)
			<-done
			requireFindings(t, sess) // the block's kept registrations
			release := tc.leak(chans[1], r)
			requireFindings(t, sess, tc.line)
			if err := release(); err != nil {
				t.Fatal(err)
			}
			requireFindings(t, sess)
		})
	}
}

// TestCheckQuiescentRegionsRails: a rail channel striped over via and
// rdma shares each adapter with a plain channel of that driver, and after
// bulk traffic on all three the adapters pin exactly the rings and kept
// registrations of both channels: nothing is reported.
func TestCheckQuiescentRegionsRails(t *testing.T) {
	sess := NewSession(testWorld(2))
	var all []map[int]*Channel
	for _, spec := range []ChannelSpec{
		{Name: "plain-via", Driver: "via"},
		{Name: "plain-rdma", Driver: "rdma"},
		{Name: "rails", Rails: []RailSpec{{Driver: "via"}, {Driver: "rdma"}}},
	} {
		chans, err := sess.NewChannel(spec)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, chans)
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	msg := []block{{pattern(256<<10, 1), SendCheaper, ReceiveCheaper}}
	for _, chans := range all {
		done := make(chan struct{})
		go func() {
			defer close(done)
			recvMsg(t, chans[1], r, msg)
		}()
		sendMsg(t, chans[0], s, 1, msg)
		<-done
	}
	requireFindings(t, sess)
}
