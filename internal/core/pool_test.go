package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// flakyMover reports a wire failure on chosen calls of a static mover,
// after the real operation ran: the buffer did cross the wire (or the
// slot was credited back), so the two ends stay in step while the message
// that saw the error aborts.
type flakyMover struct {
	staticMover
	sends, releases       int
	failSend, failRelease int // absolute call ordinals; 0 = never
}

func (f *flakyMover) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	err := f.staticMover.SendBuffer(a, cs, data)
	if f.sends++; err == nil && f.sends == f.failSend {
		err = errFakeWire
	}
	return err
}

func (f *flakyMover) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	err := f.staticMover.ReleaseStaticBuffer(a, cs, buf)
	if f.releases++; err == nil && f.releases == f.failRelease {
		err = errFakeWire
	}
	return err
}

// poolPlan is one message of TestStaticPoolBalanced as the receiver sees
// it: the blocks that reach the wire, and which Unpack is due to fail.
type poolPlan struct {
	blocks []block
	failAt int // index of the Unpack that must report the injected error; -1 = none
}

// TestStaticPoolBalanced drives every static TM of every driver through
// clean messages, messages whose send fails mid-way, messages whose
// receive-side release fails, and a send toward a closed peer. After each
// the session must be quiescent (no lease held, no static buffer obtained
// and not sent); at the end the TM's free list holds every buffer it made,
// and a protocol with buffers of its own tracks none as outstanding.
func TestStaticPoolBalanced(t *testing.T) {
	for _, drv := range Drivers() {
		probe, _ := newTestChannel(t, drv)
		for i, tm := range probe[0].pmm.TMs() {
			if _, ok := tm.(*StaticTM); ok {
				t.Run(drv+"/"+tm.Name(), func(t *testing.T) { staticPoolRounds(t, drv, i) })
			}
		}
	}
}

func staticPoolRounds(t *testing.T, drv string, tmIdx int) {
	chans, sess := newTestChannel(t, drv)
	var flaky [2]*flakyMover
	for r := range flaky {
		stm := chans[r].pmm.TMs()[tmIdx].(*StaticTM)
		flaky[r] = &flakyMover{staticMover: stm.staticMover}
		stm.staticMover = flaky[r]
	}
	tm := chans[0].pmm.TMs()[tmIdx]
	// The largest block that travels this TM alone in one buffer.
	size := tm.StaticSize()
	for size > 0 && chans[0].pmm.Select(size, SendCheaper, ReceiveExpress) != tm {
		size--
	}
	if size == 0 {
		t.Skipf("Select never picks %s on driver %s", tm.Name(), drv)
	}
	express := block{pattern(size, 1), SendCheaper, ReceiveExpress}
	clean := []block{express, express, express}
	// Three blocks sharing one buffer, flushed by the last: the send side
	// holds an obtained buffer across Pack calls.
	shared := clean
	if third := size / 3; third > 0 && chans[0].pmm.Select(third, SendCheaper, ReceiveCheaper) == tm {
		part := block{pattern(third, 2), SendCheaper, ReceiveCheaper}
		shared = []block{part, part, {part.data, SendCheaper, ReceiveExpress}}
	}

	plans := make(chan poolPlan)
	recvErr := make(chan error)
	r := vclock.NewActor("r")
	go func() {
		for p := range plans {
			recvErr <- func() error {
				cn, err := chans[1].BeginUnpacking(r)
				if err != nil {
					return err
				}
				for i, b := range p.blocks {
					err := cn.Unpack(make([]byte, len(b.data)), b.sm, b.rm)
					if i == p.failAt {
						if !errors.Is(err, errFakeWire) {
							return fmt.Errorf("unpack %d: %v, want the injected failure", i, err)
						}
						return nil // aborted: the lease is released
					}
					if err != nil {
						return fmt.Errorf("unpack %d: %w", i, err)
					}
				}
				return cn.EndUnpacking()
			}()
		}
	}()
	defer close(plans)

	s := vclock.NewActor("s")
	// send packs blocks until one fails and reports how many were packed
	// without error.
	send := func(blocks []block) (int, error) {
		cn, err := chans[0].BeginPacking(s, 1)
		if err != nil {
			return 0, err
		}
		for i, b := range blocks {
			if err := cn.Pack(b.data, b.sm, b.rm); err != nil {
				return i, err
			}
		}
		return len(blocks), cn.EndPacking()
	}
	for round := 0; round < 24; round++ {
		blocks, plan := clean, poolPlan{failAt: -1}
		switch round % 4 {
		case 1: // the second buffer's send reports a failure: two blocks reach the wire
			flaky[0].failSend = flaky[0].sends + 2
			plan.blocks = clean[:2]
		case 2: // the last buffer's release fails under the receiver
			flaky[1].failRelease = flaky[1].releases + len(clean)
			plan.blocks, plan.failAt = clean, len(clean)-1
		case 3: // the shared buffer's only send reports a failure
			blocks = shared
			flaky[0].failSend = flaky[0].sends + 1
			plan.blocks = shared
		default:
			plan.blocks = clean
		}
		plans <- plan
		_, err := send(blocks)
		if wantErr := round%4 == 1 || round%4 == 3; wantErr != errors.Is(err, errFakeWire) {
			t.Fatalf("round %d: send error %v, injected failure expected: %v", round, err, wantErr)
		}
		if err := <-recvErr; err != nil {
			t.Fatalf("round %d: receiver: %v", round, err)
		}
		// Checked before the next round begins, so a lease an aborted
		// message kept fails here instead of wedging that round.
		if err := sess.CheckQuiescent(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// A closed peer: the buffer is obtained and the announcement refused.
	chans[1].Close()
	if _, err := send(clean); !errors.Is(err, ErrClosed) {
		t.Fatalf("send toward a closed peer: %v, want ErrClosed", err)
	}
	if err := sess.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}

	if tm.(*StaticTM).owner == nil && len(chans[0].conns[1].sFree[tmIdx].bufs) == 0 {
		t.Errorf("%s: no idle buffer; want every buffer made back on the list", tm.Name())
	}
	for rank, ch := range chans {
		for _, cs := range ch.conns {
			if cs == nil {
				continue
			}
			if st, ok := cs.Priv.(*sbpConn); ok && len(st.sendBufs)+len(st.recvBufs) != 0 {
				t.Errorf("rank %d: sbp tracks %d send and %d receive buffers as outstanding",
					rank, len(st.sendBufs), len(st.recvBufs))
			}
		}
	}
}

// granteeFunc adapts a function to the lease's async waiter interface.
type granteeFunc func(vclock.Time)

func (f granteeFunc) Ready(t vclock.Time, _ bool) { f(t) }

// TestLeaseReleasedWaiterCollectable is the lease FIFO's retention
// regression: a parked waiter is its AsyncMsg (here, a closure's capture),
// so once it has run, the waiter queue must not keep it reachable.
func TestLeaseReleasedWaiterCollectable(t *testing.T) {
	l := newLease()
	a := vclock.NewActor("holder")
	l.acquire(a)
	const waiters = 3
	collected := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		captured := new([64]byte)
		runtime.SetFinalizer(captured, func(*[64]byte) { collected <- struct{}{} })
		if l.acquireAsync(new(simnet.Slot), granteeFunc(func(vclock.Time) { captured[0]++ })) {
			t.Fatal("acquireAsync ran inline on a held lease")
		}
	}
	for i := 0; i <= waiters; i++ {
		l.release(a) // hands over to the next continuation, finally frees
	}
	deadline := time.After(5 * time.Second)
	for got := 0; got < waiters; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of %d released waiters' closures were collected; the FIFO still references the rest", got, waiters)
		}
	}
	runtime.KeepAlive(l.q) // the lease outlives its waiters, as a connection's does
}

// TestRendezvousRegionsBalanced holds the registered-memory lease of the
// two rendezvous TMs at run time: each connection direction keeps its last
// large block's registration and must deregister the one a miss replaces.
// After every round trip, and after a send refused by a closed peer, each
// side pins exactly what NewChannel set up (rings and posted descriptors)
// plus one kept registration per direction that has carried a large
// block: via keeps one on each side of a block, rdma one on the receive
// side. The receive buffer is fresh every round, so every reception
// misses and replaces its direction's registration.
func TestRendezvousRegionsBalanced(t *testing.T) {
	const size = 64 << 10
	for _, tc := range []struct {
		drv, tm string
		kept    int // per side, once both directions have carried a block
		pinned  func(*Channel) int
	}{
		{"via", "via-large", 2, func(c *Channel) int { return c.pmm.(*viaPMM).nic.Registered() }},
		{"rdma", "rdma-rdv", 1, func(c *Channel) int { return c.pmm.(*rdmaPMM).hca.Registered() }},
	} {
		t.Run(tc.drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, tc.drv)
			if got := chans[0].pmm.Select(size, SendCheaper, ReceiveCheaper).Name(); got != tc.tm {
				t.Fatalf("%d-byte blocks travel on %s, want %s", size, got, tc.tm)
			}
			base := [2]int{tc.pinned(chans[0]), tc.pinned(chans[1])}
			check := func(when string) {
				t.Helper()
				for rank, want := range base {
					if got := tc.pinned(chans[rank]); got != want+tc.kept {
						t.Fatalf("%s: rank %d pins %d regions, want %d after NewChannel + %d kept",
							when, rank, got, want, tc.kept)
					}
				}
			}
			msg := []block{{make([]byte, size), SendCheaper, ReceiveCheaper}}
			actors := [2]*vclock.Actor{vclock.NewActor("rank0"), vclock.NewActor("rank1")}
			for round := 0; round < 4; round++ {
				for src := 0; src < 2; src++ {
					dst := 1 - src
					recvErr := make(chan error, 1)
					go func() {
						conn, err := chans[dst].BeginUnpacking(actors[dst])
						if err != nil {
							recvErr <- err
							return
						}
						if err := conn.Unpack(make([]byte, size), SendCheaper, ReceiveCheaper); err != nil {
							recvErr <- err
							return
						}
						recvErr <- conn.EndUnpacking()
					}()
					sendMsg(t, chans[src], actors[src], dst, msg)
					if err := <-recvErr; err != nil {
						t.Fatalf("round %d, %d->%d: receiver: %v", round, src, dst, err)
					}
				}
				check(fmt.Sprintf("round trip %d", round))
			}
			chans[1].Close()
			conn, err := chans[0].BeginPacking(actors[0], 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.Pack(msg[0].data, SendCheaper, ReceiveCheaper); !errors.Is(err, ErrClosed) {
				t.Fatalf("send toward a closed peer: %v, want ErrClosed", err)
			}
			check("after the aborted message")
		})
	}
}
