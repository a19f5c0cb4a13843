package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"madeleine2/internal/bip"
	"madeleine2/internal/model"
	"madeleine2/internal/sbp"
	"madeleine2/internal/simnet"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
)

// This file exercises the concurrency contract of the message path: every
// per-message state lives on the Connection, the shared ConnState carries
// only lease-guarded long-lived resources, so disjoint connections of one
// channel can be driven by disjoint actors, and one connection is full
// duplex. Run with -race.

// TestConcurrentConnections drives every directed pair of a 4-node channel
// from its own actor simultaneously: 12 senders and 4 receiver loops all
// active on the same channel objects.
func TestConcurrentConnections(t *testing.T) {
	const (
		nodes   = 4
		msgs    = 5
		payload = 1024
	)
	for _, drv := range []string{"tcp", "sisci", "bip"} {
		t.Run(drv, func(t *testing.T) {
			sess := NewSession(testWorld(nodes))
			chans, err := sess.NewChannel(ChannelSpec{Name: "conc-" + drv, Driver: drv})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, nodes*nodes*msgs)
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					if src == dst {
						continue
					}
					wg.Add(1)
					go func(src, dst int) {
						defer wg.Done()
						a := vclock.NewActor(fmt.Sprintf("s%d-%d", src, dst))
						for seq := 0; seq < msgs; seq++ {
							conn, err := chans[src].BeginPacking(a, dst)
							if err != nil {
								errs <- err
								return
							}
							hdr := []byte{byte(src), byte(seq)}
							if err := conn.Pack(hdr, SendCheaper, ReceiveExpress); err != nil {
								errs <- err
								return
							}
							body := pattern(payload, byte(src*16+seq))
							if err := conn.Pack(body, SendCheaper, ReceiveCheaper); err != nil {
								errs <- err
								return
							}
							if err := conn.EndPacking(); err != nil {
								errs <- err
								return
							}
						}
					}(src, dst)
				}
			}
			for rank := 0; rank < nodes; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					a := vclock.NewActor(fmt.Sprintf("r%d", rank))
					lastSeq := map[int]int{} // per-source FIFO check
					for i := 0; i < (nodes-1)*msgs; i++ {
						conn, err := chans[rank].BeginUnpacking(a)
						if err != nil {
							errs <- err
							return
						}
						hdr := make([]byte, 2)
						if err := conn.Unpack(hdr, SendCheaper, ReceiveExpress); err != nil {
							errs <- err
							return
						}
						src, seq := int(hdr[0]), int(hdr[1])
						if src != conn.Remote() {
							errs <- fmt.Errorf("rank %d: header says src %d but connection remote is %d", rank, src, conn.Remote())
							return
						}
						if last, seen := lastSeq[src]; seen && seq <= last {
							errs <- fmt.Errorf("rank %d: connection %d->%d reordered: seq %d after %d", rank, src, rank, seq, last)
							return
						}
						lastSeq[src] = seq
						body := make([]byte, payload)
						if err := conn.Unpack(body, SendCheaper, ReceiveCheaper); err != nil {
							errs <- err
							return
						}
						if err := conn.EndUnpacking(); err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(body, pattern(payload, byte(src*16+seq))) {
							errs <- fmt.Errorf("rank %d: message %d/%d from %d corrupted", rank, seq, msgs, src)
							return
						}
					}
				}(rank)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			// Every message was accounted exactly once.
			for rank := 0; rank < nodes; rank++ {
				st := chans[rank].Stats()
				if st.MessagesOut != (nodes-1)*msgs || st.MessagesIn != (nodes-1)*msgs {
					t.Errorf("rank %d stats: %s", rank, st)
				}
			}
		})
	}
}

// TestFullDuplexConnection sends and receives on the SAME connection
// simultaneously: rank 0 streams to rank 1 while rank 1 streams back, four
// actors sharing the two ConnStates of one member pair.
func TestFullDuplexConnection(t *testing.T) {
	const msgs = 8
	for _, drv := range Drivers() {
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			var wg sync.WaitGroup
			errs := make(chan error, 4*msgs)
			dir := func(src, dst int) {
				defer wg.Done()
				a := vclock.NewActor(fmt.Sprintf("fd-s%d", src))
				for seq := 0; seq < msgs; seq++ {
					conn, err := chans[src].BeginPacking(a, dst)
					if err != nil {
						errs <- err
						return
					}
					// Mixed sizes force TM switches under concurrency.
					if err := conn.Pack(pattern(16, byte(seq)), SendCheaper, ReceiveExpress); err != nil {
						errs <- err
						return
					}
					if err := conn.Pack(pattern(9000, byte(seq+1)), SendCheaper, ReceiveCheaper); err != nil {
						errs <- err
						return
					}
					if err := conn.EndPacking(); err != nil {
						errs <- err
						return
					}
				}
			}
			sink := func(rank int) {
				defer wg.Done()
				a := vclock.NewActor(fmt.Sprintf("fd-r%d", rank))
				for seq := 0; seq < msgs; seq++ {
					conn, err := chans[rank].BeginUnpacking(a)
					if err != nil {
						errs <- err
						return
					}
					short := make([]byte, 16)
					if err := conn.Unpack(short, SendCheaper, ReceiveExpress); err != nil {
						errs <- err
						return
					}
					long := make([]byte, 9000)
					if err := conn.Unpack(long, SendCheaper, ReceiveCheaper); err != nil {
						errs <- err
						return
					}
					if err := conn.EndUnpacking(); err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(short, pattern(16, byte(seq))) || !bytes.Equal(long, pattern(9000, byte(seq+1))) {
						errs <- fmt.Errorf("rank %d: duplex message %d corrupted", rank, seq)
						return
					}
				}
			}
			wg.Add(4)
			go dir(0, 1)
			go dir(1, 0)
			go sink(0)
			go sink(1)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestSendLeaseSerializes lets two actors contend for ONE connection's send
// lease: messages from both must arrive atomic (blocks never interleaved
// across messages), which only holds if BeginPacking grants exclusive
// per-message ownership of the direction.
func TestSendLeaseSerializes(t *testing.T) {
	const msgsEach = 10
	for _, drv := range []string{"bip", "via", "tcp"} {
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			var wg sync.WaitGroup
			errs := make(chan error, 3*msgsEach)
			sender := func(id byte) {
				defer wg.Done()
				a := vclock.NewActor(fmt.Sprintf("contend-%d", id))
				for seq := 0; seq < msgsEach; seq++ {
					conn, err := chans[0].BeginPacking(a, 1)
					if err != nil {
						errs <- err
						return
					}
					// Two blocks with a TM switch in between: an interleaved
					// competitor would corrupt the switch's flush order.
					if err := conn.Pack([]byte{id}, SendCheaper, ReceiveExpress); err != nil {
						errs <- err
						return
					}
					if err := conn.Pack(pattern(8192, id), SendCheaper, ReceiveCheaper); err != nil {
						errs <- err
						return
					}
					if err := conn.EndPacking(); err != nil {
						errs <- err
						return
					}
				}
			}
			wg.Add(2)
			go sender(1)
			go sender(2)
			r := vclock.NewActor("contend-r")
			got := map[byte]int{}
			for i := 0; i < 2*msgsEach; i++ {
				conn, err := chans[1].BeginUnpacking(r)
				if err != nil {
					t.Fatal(err)
				}
				id := make([]byte, 1)
				if err := conn.Unpack(id, SendCheaper, ReceiveExpress); err != nil {
					t.Fatal(err)
				}
				body := make([]byte, 8192)
				if err := conn.Unpack(body, SendCheaper, ReceiveCheaper); err != nil {
					t.Fatal(err)
				}
				if err := conn.EndUnpacking(); err != nil {
					t.Fatal(err)
				}
				// Atomicity: the body must belong to the same sender as the
				// header of the same message.
				if !bytes.Equal(body, pattern(8192, id[0])) {
					t.Fatalf("message %d: header from sender %d but body from another message", i, id[0])
				}
				got[id[0]]++
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got[1] != msgsEach || got[2] != msgsEach {
				t.Errorf("message counts per sender = %v", got)
			}
		})
	}
}

// TestCloseRace pins the Close/BeginUnpacking interaction (the receive side
// of channel shutdown): a blocked receiver, a late receiver and a racing
// sender must all see exactly ErrClosed.
func TestCloseRace(t *testing.T) {
	t.Run("blocked-receiver", func(t *testing.T) {
		chans, _ := newTestChannel(t, "tcp")
		res := make(chan error, 1)
		go func() {
			_, err := chans[1].BeginUnpacking(vclock.NewActor("r"))
			res <- err
		}()
		chans[1].Close()
		if err := <-res; !errors.Is(err, ErrClosed) {
			t.Errorf("blocked BeginUnpacking after Close: %v, want ErrClosed", err)
		}
	})
	t.Run("drain-then-closed", func(t *testing.T) {
		chans, _ := newTestChannel(t, "tcp")
		s, r := vclock.NewActor("s"), vclock.NewActor("r")
		blocks := []block{{pattern(32, 1), SendCheaper, ReceiveExpress}}
		sendMsg(t, chans[0], s, 1, blocks)
		chans[1].Close()
		// The in-flight message is still delivered...
		got := recvMsg(t, chans[1], r, blocks)
		if !bytes.Equal(got[0], blocks[0].data) {
			t.Error("pending message corrupted by Close")
		}
		// ...and only then does the channel report closure.
		if _, err := chans[1].BeginUnpacking(r); !errors.Is(err, ErrClosed) {
			t.Errorf("post-drain BeginUnpacking: %v, want ErrClosed", err)
		}
		// Idempotent.
		chans[1].Close()
	})
	t.Run("sender-sees-closed", func(t *testing.T) {
		chans, _ := newTestChannel(t, "tcp")
		chans[1].Close()
		a := vclock.NewActor("s")
		conn, err := chans[0].BeginPacking(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The express block flushes immediately, so the announcement's
		// failure surfaces here — as ErrClosed, not a missing-connection
		// error.
		err = conn.Pack(pattern(16, 0), SendCheaper, ReceiveExpress)
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Pack toward a closed channel: %v, want ErrClosed", err)
		}
		// The failed Pack aborted the message and released the send lease
		// itself — callers bail out on a Pack error without EndPacking, so
		// a fresh BeginPacking must not deadlock on a leaked lease.
		conn2, err := chans[0].BeginPacking(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn2.EndPacking(); !errors.Is(err, ErrEmptyMessage) {
			t.Errorf("empty message after lease recycle: %v", err)
		}
		// EndPacking on the aborted connection is a no-op: the lease it
		// would otherwise double-release belongs to later messages now.
		if err := conn.EndPacking(); !errors.Is(err, ErrBadState) {
			t.Errorf("EndPacking after failed Pack: %v, want ErrBadState", err)
		}
	})
}

// failingBMM errors on every operation; tests inject it into a
// connection's BMM cache to exercise the abort-on-error paths.
type failingBMM struct{ err error }

func (f failingBMM) Name() string { return "failing" }
func (f failingBMM) Pack(a *vclock.Actor, data []byte, sm SendMode, rm RecvMode) error {
	return f.err
}
func (f failingBMM) Commit(a *vclock.Actor) error                          { return f.err }
func (f failingBMM) Unpack(a *vclock.Actor, dst []byte, rm RecvMode) error { return f.err }
func (f failingBMM) Checkout(a *vclock.Actor) error                        { return f.err }
func (f failingBMM) discard()                                              {}

// TestUnpackAbortReleasesLease pins the receive-side mirror of the Pack
// abort contract: a failed Unpack releases the receive lease itself, so a
// dispatcher that bails out on the error without EndUnpacking cannot wedge
// the connection for the next reception.
func TestUnpackAbortReleasesLease(t *testing.T) {
	chans, _ := newTestChannel(t, "tcp")
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	// Two identical messages: the first reception is aborted by an injected
	// driver fault, and in-order wire delivery hands its bytes to the second
	// reception — identical payloads keep the content check meaningful.
	blocks := []block{{pattern(32, 3), SendCheaper, ReceiveExpress}}
	sendMsg(t, chans[0], s, 1, blocks)
	sendMsg(t, chans[0], s, 1, blocks)

	rc, err := chans[1].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected driver fault")
	cs := rc.cs
	tm := chans[1].pmm.Select(32, SendCheaper, ReceiveExpress)
	num := tmNum(cs.tms, tm)
	saved := cs.rBMMs[num]
	cs.rBMMs[num] = failingBMM{err: boom}
	if err := rc.Unpack(make([]byte, 32), SendCheaper, ReceiveExpress); !errors.Is(err, boom) {
		t.Fatalf("Unpack with injected fault: %v", err)
	}
	cs.rBMMs[num] = saved
	if err := rc.EndUnpacking(); !errors.Is(err, ErrBadState) {
		t.Errorf("EndUnpacking after failed Unpack: %v, want ErrBadState", err)
	}
	// The lease came back: the next reception proceeds without deadlock.
	got := recvMsg(t, chans[1], r, blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Error("reception after aborted unpack corrupted")
	}
}

// sbpAllHome fails the test unless every kernel buffer the channel's
// endpoint made is back in its pool.
func sbpAllHome(t *testing.T, ch *Channel, when string) {
	t.Helper()
	if away, made := ch.pmm.(*sbpPMM).ep.Outstanding(); away != 0 {
		t.Fatalf("%s: %d of the %d kernel buffers rank %d made are not home", when, away, made, ch.Rank())
	}
}

// TestSBPAbortReleasesKernelBuffer pins the refused announcement on sbp: a
// send toward a closed peer must hand its kernel static buffer back to the
// pool, so after each refused send every buffer the endpoint made is home
// and a single leaked buffer fails.
func TestSBPAbortReleasesKernelBuffer(t *testing.T) {
	chans, _ := newTestChannel(t, "sbp")
	chans[1].Close()
	a := vclock.NewActor("s")
	for i := 0; i < 2*sbp.PoolSize; i++ {
		conn, err := chans[0].BeginPacking(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		err = conn.Pack(pattern(16, byte(i)), SendCheaper, ReceiveExpress)
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("send %d toward a closed sbp peer: %v, want ErrClosed", i, err)
		}
		sbpAllHome(t, chans[0], fmt.Sprintf("refused send %d", i))
	}
}

// TestSBPExchangeDoesNotBlock pins the kernel pool that never blocks:
// ranks 0 and 1 each send the other a 1 MiB message before either
// receives, 33 kernel buffers each, more than PoolSize, all in flight at
// once. Both messages arrive intact, and afterwards every buffer each
// endpoint made is home. A pool that blocked at PoolSize outstanding
// buffers would hang both ranks in their sends.
func TestSBPExchangeDoesNotBlock(t *testing.T) {
	chans, sess := newTestChannel(t, "sbp")
	msgs := map[int][]block{
		0: {{pattern(8, 1), SendCheaper, ReceiveExpress}, {pattern(1<<20, 2), SendCheaper, ReceiveCheaper}},
		1: {{pattern(8, 3), SendCheaper, ReceiveExpress}, {pattern(1<<20, 4), SendCheaper, ReceiveCheaper}},
	}
	errs := make(chan error, 2)
	for rank := range 2 {
		go func() {
			errs <- func() error {
				ch, a := chans[rank], vclock.NewActor(fmt.Sprintf("rank%d", rank))
				if err := ch.Send(a, 1-rank, func(cn *Connection) error {
					for _, b := range msgs[rank] {
						if err := cn.Pack(b.data, b.sm, b.rm); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return fmt.Errorf("rank %d send: %w", rank, err)
				}
				got := make([][]byte, len(msgs[1-rank]))
				if err := ch.Recv(a, func(cn *Connection) error {
					for i, b := range msgs[1-rank] {
						got[i] = make([]byte, len(b.data))
						if err := cn.Unpack(got[i], b.sm, b.rm); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return fmt.Errorf("rank %d receive: %w", rank, err)
				}
				for i, b := range msgs[1-rank] {
					if !bytes.Equal(got[i], b.data) {
						return fmt.Errorf("rank %d received a damaged %d-byte block", rank, len(b.data))
					}
				}
				return nil
			}()
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, ch := range chans {
		sbpAllHome(t, ch, "after the exchange")
		if _, made := ch.pmm.(*sbpPMM).ep.Outstanding(); made <= sbp.PoolSize {
			t.Errorf("rank %d made %d kernel buffers for a 1 MiB message in flight, want more than %d", ch.Rank(), made, sbp.PoolSize)
		}
	}
	if err := sess.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestEndPackingCleanState pins the error paths of message finalization:
// every failure must leave the connection direction ready for the next
// message (satellite of the msgState hoist — stale per-message state on the
// shared ConnState used to survive an aborted message).
func TestEndPackingCleanState(t *testing.T) {
	chans, _ := newTestChannel(t, "tcp")
	a := vclock.NewActor("a")

	conn, err := chans[0].BeginPacking(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.EndPacking(); !errors.Is(err, ErrEmptyMessage) {
		t.Fatalf("empty EndPacking: %v", err)
	}
	if err := conn.EndPacking(); !errors.Is(err, ErrBadState) {
		t.Errorf("double EndPacking: %v, want ErrBadState", err)
	}
	if err := conn.Pack([]byte{1}, SendCheaper, ReceiveCheaper); !errors.Is(err, ErrBadState) {
		t.Errorf("Pack after EndPacking: %v, want ErrBadState", err)
	}
	if err := conn.Unpack(make([]byte, 1), SendCheaper, ReceiveCheaper); !errors.Is(err, ErrBadState) {
		t.Errorf("Unpack on a packing connection: %v, want ErrBadState", err)
	}

	// The aborted message left no residue: a full round-trip works on the
	// same connection with the same actor.
	r := vclock.NewActor("r")
	blocks := []block{{pattern(64, 9), SendCheaper, ReceiveExpress}}
	done := make(chan [][]byte, 1)
	go func() { done <- recvMsg(t, chans[1], r, blocks) }()
	sendMsg(t, chans[0], a, 1, blocks)
	if got := <-done; !bytes.Equal(got[0], blocks[0].data) {
		t.Error("round-trip after aborted message corrupted")
	}
	if st := chans[0].Stats(); st.MessagesOut != 1 {
		t.Errorf("aborted message leaked into stats: %s", st)
	}

	// Mirror checks on the unpacking side.
	sendMsg(t, chans[0], a, 1, blocks)
	rc, err := chans[1].BeginUnpacking(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Pack([]byte{1}, SendCheaper, ReceiveCheaper); !errors.Is(err, ErrBadState) {
		t.Errorf("Pack on an unpacking connection: %v, want ErrBadState", err)
	}
	if err := rc.Unpack(make([]byte, 64), SendCheaper, ReceiveExpress); err != nil {
		t.Fatal(err)
	}
	if err := rc.EndUnpacking(); err != nil {
		t.Fatal(err)
	}
	if err := rc.EndUnpacking(); !errors.Is(err, ErrBadState) {
		t.Errorf("double EndUnpacking: %v, want ErrBadState", err)
	}
}

// TestAnnounceMissingPeer pins where Announce's failure surfaces: a peer
// that has closed its receive side yields ErrClosed through the call that
// first reaches the wire, and the lease comes back.
func TestAnnounceMissingPeer(t *testing.T) {
	newBroken := func(t *testing.T) *Channel {
		chans, _ := newTestChannel(t, "tcp")
		chans[1].Close()
		return chans[0]
	}
	t.Run("express-surfaces-at-pack", func(t *testing.T) {
		ch := newBroken(t)
		a := vclock.NewActor("a")
		conn, err := ch.BeginPacking(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		err = conn.Pack(pattern(16, 0), SendCheaper, ReceiveExpress)
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Pack toward a closed peer channel: %v", err)
		}
		conn.EndPacking()
	})
	t.Run("cheaper-surfaces-at-end", func(t *testing.T) {
		ch := newBroken(t)
		a := vclock.NewActor("a")
		conn, err := ch.BeginPacking(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Pack(pattern(16, 0), SendCheaper, ReceiveCheaper); err != nil {
			t.Fatalf("deferred block must not announce yet: %v", err)
		}
		err = conn.EndPacking()
		if !errors.Is(err, ErrClosed) {
			t.Errorf("EndPacking toward a closed peer channel: %v", err)
		}
		// The lease came back despite the failure.
		if _, err := ch.BeginPacking(a, 1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUsesStaticBoundaries tables Channel.UsesStatic across every PMM,
// including the SISCI dual-buffering knee (blocks at and above
// model.SISCIDualMin leave the static slot TMs for the dynamic stream TM).
func TestUsesStaticBoundaries(t *testing.T) {
	cases := []struct {
		driver string
		n      int
		want   bool
	}{
		{"bip", 16, true},
		{"bip", bip.ShortMax - 1, true},
		{"bip", bip.ShortMax, false},
		{"sisci", model.SISCIShortMax - 1, true}, // short slot TM
		{"sisci", model.SISCIShortMax, true},     // pio slot TM
		{"sisci", model.SISCIDualMin - 1, true},  // still pio
		{"sisci", model.SISCIDualMin, false},     // dual-buffer stream
		{"sisci", model.SISCIDualMin + 1, false},
		{"tcp", 16, false},
		{"tcp", 1 << 20, false},
		{"via", model.VIAShortMax - 1, true},
		{"via", model.VIAShortMax, false},
		{"sbp", 16, true},
		{"sbp", 1 << 20, true},
	}
	chanOf := map[string]*Channel{}
	for _, c := range cases {
		if chanOf[c.driver] == nil {
			chans, _ := newTestChannel(t, c.driver)
			chanOf[c.driver] = chans[0]
		}
		if got := chanOf[c.driver].UsesStatic(c.n); got != c.want {
			t.Errorf("%s.UsesStatic(%d) = %v, want %v", c.driver, c.n, got, c.want)
		}
	}
}

// TestCommitsAllPMMs counts Switch-step commits (TM-change flushes) across
// every PMM, including the SISCI knee where an 8 kB ± 1 size step is what
// separates zero commits from one.
func TestCommitsAllPMMs(t *testing.T) {
	short, long := 16, 64*1024
	cases := []struct {
		driver string
		sizes  []int
		want   int64
	}{
		{"bip", []int{short, long, short}, 2},
		{"sisci", []int{short, long, short}, 2},
		{"via", []int{short, long, short}, 2},
		{"tcp", []int{short, long, short}, 0},                               // single TM: nothing to switch
		{"sbp", []int{short, long, short}, 0},                               // single TM
		{"sisci", []int{model.SISCIDualMin - 1, model.SISCIDualMin - 1}, 0}, // both pio
		{"sisci", []int{model.SISCIDualMin - 1, model.SISCIDualMin}, 1},     // pio -> dual
		{"sisci", []int{model.SISCIDualMin + 1, model.SISCIDualMin}, 0},     // both dual
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("%s-%d", c.driver, i), func(t *testing.T) {
			chans, _ := newTestChannel(t, c.driver)
			blocks := make([]block, len(c.sizes))
			for j, n := range c.sizes {
				blocks[j] = block{pattern(n, byte(j)), SendCheaper, ReceiveCheaper}
			}
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			done := make(chan [][]byte, 1)
			go func() { done <- recvMsg(t, chans[1], r, blocks) }()
			sendMsg(t, chans[0], s, 1, blocks)
			got := <-done
			for j := range blocks {
				if !bytes.Equal(got[j], blocks[j].data) {
					t.Fatalf("block %d corrupted", j)
				}
			}
			if st := chans[0].Stats(); st.Commits != c.want {
				t.Errorf("%s sizes %v: Commits = %d, want %d", c.driver, c.sizes, st.Commits, c.want)
			}
		})
	}
}

// BenchmarkConcurrentChannels measures aggregate throughput as the number
// of concurrently driven connections grows. Disjoint node pairs have
// disjoint wires, so the virtual-time makespan stays flat while the byte
// count multiplies: aggregate virtual throughput must scale with the
// connection count (the point of hoisting per-message state out of the
// shared ConnState).
func BenchmarkConcurrentChannels(b *testing.B) {
	const (
		msgSize = 64 * 1024
		msgs    = 8
	)
	for _, conns := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			payload := pattern(msgSize, 1)
			b.SetBytes(int64(conns * msgs * msgSize))
			var virtMakespan vclock.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := simnet.NewWorld(2 * conns)
				for n := 0; n < 2*conns; n++ {
					w.Node(n).AddAdapter(tcpnet.Network)
				}
				sess := NewSession(w)
				chans, err := sess.NewChannel(ChannelSpec{Name: "bench", Driver: "tcp"})
				if err != nil {
					b.Fatal(err)
				}
				ends := make(chan vclock.Time, conns)
				var wg sync.WaitGroup
				for c := 0; c < conns; c++ {
					src, dst := 2*c, 2*c+1
					wg.Add(2)
					go func() {
						defer wg.Done()
						a := vclock.NewActor(fmt.Sprintf("bs%d", src))
						for m := 0; m < msgs; m++ {
							conn, err := chans[src].BeginPacking(a, dst)
							if err != nil {
								b.Error(err)
								return
							}
							if err := conn.Pack(payload, SendCheaper, ReceiveCheaper); err != nil {
								b.Error(err)
								return
							}
							if err := conn.EndPacking(); err != nil {
								b.Error(err)
								return
							}
						}
					}()
					go func() {
						defer wg.Done()
						a := vclock.NewActor(fmt.Sprintf("br%d", dst))
						buf := make([]byte, msgSize)
						for m := 0; m < msgs; m++ {
							conn, err := chans[dst].BeginUnpacking(a)
							if err != nil {
								b.Error(err)
								return
							}
							if err := conn.Unpack(buf, SendCheaper, ReceiveCheaper); err != nil {
								b.Error(err)
								return
							}
							if err := conn.EndUnpacking(); err != nil {
								b.Error(err)
								return
							}
						}
						ends <- a.Now()
					}()
				}
				wg.Wait()
				close(ends)
				virtMakespan = 0
				for e := range ends {
					virtMakespan = vclock.Max(virtMakespan, e)
				}
			}
			b.StopTimer()
			if virtMakespan > 0 {
				b.ReportMetric(vclock.MBps(conns*msgs*msgSize, virtMakespan), "virtMB/s")
			}
		})
	}
}
