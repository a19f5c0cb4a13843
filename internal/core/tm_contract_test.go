package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"madeleine2/internal/bip"
	"madeleine2/internal/model"
	"madeleine2/internal/vclock"
)

// The TM contract, checked over every transmission module of every
// protocol module the library ships: each driver name, plus a two-rail
// channel for the rail TMs.

type contractChannel struct {
	name string
	rail bool
	open func(t *testing.T) map[int]*Channel
}

func contractChannels() []contractChannel {
	var out []contractChannel
	for _, drv := range Drivers() {
		out = append(out, contractChannel{name: drv, open: func(t *testing.T) map[int]*Channel {
			chans, _ := newTestChannel(t, drv)
			return chans
		}})
	}
	return append(out, contractChannel{name: "rails", rail: true, open: func(t *testing.T) map[int]*Channel {
		chans, _ := newRailTestChannel(t, "contract-rails", sameRails("sisci", 2), 0)
		return chans
	}})
}

// ownGroupBody names the TMs whose protocol does better for a group than
// sending its buffers one by one; every other TM must take the shared
// "a group is each buffer in turn" rule.
var ownGroupBody = map[string]bool{"tcp": true, "rail-stripe": true}

// contractPayloads sizes a group for the TM: static TMs get two buffers
// (the smallest staging ring holds two), dynamic TMs three blocks that
// span one ring slot, several, and a stripe.
func contractPayloads(tm TM) [][]byte {
	if n := tm.StaticSize(); n > 0 {
		return [][]byte{pattern(n, 1), pattern(n/2+1, 2)}
	}
	return [][]byte{pattern(20000, 1), pattern(9000, 2), pattern(70000, 3)}
}

// moveGroup pushes payloads through TM #i of a fresh channel — as one
// group or one buffer at a time — checks they arrive intact, and reports
// when each side finished.
func moveGroup(t *testing.T, cc contractChannel, i int, grouped bool) (sEnd, rEnd vclock.Time) {
	t.Helper()
	chans := cc.open(t)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	payloads := contractPayloads(chans[0].pmm.TMs()[i])

	sent := make(chan error, 1)
	go func() {
		err := func() error {
			cn, err := chans[0].BeginPacking(s, 1)
			if err != nil {
				return err
			}
			// The blocks go through the TM directly, so the message itself
			// stays empty; EndPacking still returns the lease.
			defer cn.EndPacking()
			tm := chans[0].pmm.TMs()[i]
			group := payloads
			if tm.StaticSize() > 0 {
				group = nil
				for _, p := range payloads {
					buf, err := tm.ObtainStaticBuffer(s, cn.cs)
					if err != nil {
						return err
					}
					group = append(group, buf[:copy(buf, p)])
				}
			}
			if grouped {
				return tm.SendBufferGroup(s, cn.cs, group)
			}
			for _, g := range group {
				if err := tm.SendBuffer(s, cn.cs, g); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			chans[1].Close() // unblock the receiver
		}
		sent <- err
	}()

	var got [][]byte
	recvErr := func() error {
		cn, err := chans[1].BeginUnpacking(r)
		if err != nil {
			return err
		}
		defer cn.EndUnpacking()
		tm := chans[1].pmm.TMs()[i]
		if tm.StaticSize() > 0 {
			for range payloads {
				buf, err := tm.ReceiveStaticBuffer(r, cn.cs)
				if err != nil {
					return err
				}
				got = append(got, append([]byte(nil), buf...))
				if err := tm.ReleaseStaticBuffer(r, cn.cs, buf); err != nil {
					return err
				}
			}
			return nil
		}
		for _, p := range payloads {
			got = append(got, make([]byte, len(p)))
		}
		if grouped {
			return tm.ReceiveSubBufferGroup(r, cn.cs, got)
		}
		for _, d := range got {
			if err := tm.ReceiveBuffer(r, cn.cs, d); err != nil {
				return err
			}
		}
		return nil
	}()
	if err := <-sent; err != nil {
		t.Fatalf("send: %v", err)
	}
	if recvErr != nil {
		t.Fatalf("receive: %v", recvErr)
	}
	for k, p := range payloads {
		if !bytes.Equal(got[k], p) {
			t.Fatalf("buffer %d arrived damaged (%d bytes, want %d)", k, len(got[k]), len(p))
		}
	}
	return s.Now(), r.Now()
}

func TestTMContract(t *testing.T) {
	a := vclock.NewActor("probe")
	for _, cc := range contractChannels() {
		t.Run(cc.name, func(t *testing.T) {
			chans := cc.open(t)
			cs := chans[0].conns[1]
			for i, tm := range chans[0].pmm.TMs() {
				t.Run(tm.Name(), func(t *testing.T) {
					// Table 2's unused half answers "not relevant", once,
					// from the adapter every built-in TM is made of.
					switch x := tm.(type) {
					case *DynamicTM:
						if x.gathers != ownGroupBody[tm.Name()] {
							t.Errorf("own group body = %v, want %v", x.gathers, ownGroupBody[tm.Name()])
						}
						if tm.StaticSize() != 0 {
							t.Errorf("dynamic TM StaticSize = %d", tm.StaticSize())
						}
						if _, err := tm.ObtainStaticBuffer(a, cs); !errors.Is(err, ErrNoStatic) {
							t.Errorf("ObtainStaticBuffer err = %v", err)
						}
						if _, err := tm.ReceiveStaticBuffer(a, cs); !errors.Is(err, ErrNoStatic) {
							t.Errorf("ReceiveStaticBuffer err = %v", err)
						}
						if err := tm.ReleaseStaticBuffer(a, cs, nil); !errors.Is(err, ErrNoStatic) {
							t.Errorf("ReleaseStaticBuffer err = %v", err)
						}
					case *StaticTM:
						if tm.StaticSize() <= 0 {
							t.Errorf("static TM StaticSize = %d", tm.StaticSize())
						}
						if err := tm.ReceiveBuffer(a, cs, make([]byte, 8)); !errors.Is(err, ErrNoStatic) {
							t.Errorf("ReceiveBuffer err = %v", err)
						}
						if err := tm.ReceiveSubBufferGroup(a, cs, [][]byte{make([]byte, 8)}); !errors.Is(err, ErrNoStatic) {
							t.Errorf("ReceiveSubBufferGroup err = %v", err)
						}
					default:
						t.Fatalf("built-in TM is a %T, not one of the two adapters", tm)
					}

					// A group delivers the same bytes as its buffers sent
					// one by one — and, unless the protocol has a better
					// way to move a group, at the same virtual time.
					gs, gr := moveGroup(t, cc, i, true)
					es, er := moveGroup(t, cc, i, false)
					if !ownGroupBody[tm.Name()] && (gs != es || gr != er) {
						t.Errorf("group finished at send %v / receive %v, one by one at %v / %v", gs, gr, es, er)
					}
				})
			}

			// One home per cost formula: the channel's link is its
			// selected TM's, on both sides of every Switch threshold.
			// Rails report an aggregate instead.
			if cc.rail {
				return
			}
			pmm := chans[0].pmm
			for _, edge := range []int{1, model.SISCIShortMax, bip.ShortMax, model.VIAShortMax,
				model.RDMACrossover, model.RDMAEagerMax, model.SISCIDualMin, 1 << 20} {
				for n := edge - 1; n <= edge+1; n++ {
					if got, want := chans[0].Link(n), pmm.Select(n, SendCheaper, ReceiveCheaper).Link(n); got != want {
						t.Errorf("Link(%d) = %+v, selected TM %s says %+v", n, got, pmm.Select(n, SendCheaper, ReceiveCheaper).Name(), want)
					}
				}
			}
		})
	}
}

// scriptedCredits is a credit wire with no peer behind it: grants written
// by returnCredits queue up for awaitGrant, which fails where a real wire
// would block.
type scriptedCredits struct {
	inFlight []int // grants written, not yet read
	returned []int // every grant written, in order
}

var errWouldBlock = errors.New("no grant in flight")

func (w *scriptedCredits) awaitGrant(a *vclock.Actor, cs *ConnState) (int, error) {
	if len(w.inFlight) == 0 {
		return 0, errWouldBlock
	}
	n := w.inFlight[0]
	w.inFlight = w.inFlight[1:]
	return n, nil
}

func (w *scriptedCredits) returnCredits(a *vclock.Actor, cs *ConnState, n int) error {
	w.inFlight = append(w.inFlight, n)
	w.returned = append(w.returned, n)
	return nil
}

func TestCreditWindow(t *testing.T) {
	const W = 8
	win, wire := newCreditWindow(W), &scriptedCredits{}
	outstanding := 0 // buffers sent and not yet released by the receiver
	send := func() error {
		if err := win.acquire(nil, nil, wire); err != nil {
			return err
		}
		outstanding++
		if outstanding > W {
			t.Fatalf("%d buffers outstanding in a window of %d", outstanding, W)
		}
		return nil
	}
	release := func() {
		outstanding--
		if err := win.release(nil, nil, wire); err != nil {
			t.Fatal(err)
		}
	}

	// A full window goes out without reading a grant; the next send blocks.
	for i := 0; i < W; i++ {
		if err := send(); err != nil {
			t.Fatalf("send %d of a fresh window: %v", i, err)
		}
	}
	if err := send(); !errors.Is(err, errWouldBlock) {
		t.Fatalf("send past a full window: err = %v, want it to block", err)
	}
	// Credits come back at exactly half a window, all at once.
	for i := 1; i < W/2; i++ {
		release()
	}
	if len(wire.returned) != 0 {
		t.Fatalf("credits returned after %d releases: %v", W/2-1, wire.returned)
	}
	release()
	if len(wire.returned) != 1 || wire.returned[0] != W/2 {
		t.Fatalf("credits returned after %d releases: %v, want one grant of %d", W/2, wire.returned, W/2)
	}

	// Any interleaving of the two sides keeps both rules.
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 10000; step++ {
		if outstanding > 0 && rng.Intn(2) == 0 {
			release()
		} else if err := send(); err != nil && (!errors.Is(err, errWouldBlock) || outstanding <= W/2) {
			// Blocking is legitimate only while the receiver still holds
			// more than the half window it has not granted back yet.
			t.Fatalf("step %d: send with %d outstanding: %v", step, outstanding, err)
		}
	}
	for _, n := range wire.returned {
		if n != W/2 {
			t.Fatalf("a grant of %d credits; every grant must be %d", n, W/2)
		}
	}
}
