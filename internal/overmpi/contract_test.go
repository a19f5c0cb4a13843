package overmpi

import (
	"bytes"
	"errors"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// spyPMM is the module with its connection states exposed, so the test
// can drive the TM directly on a real connection.
type spyPMM struct {
	*pmm
	conns map[int]*core.ConnState // by remote rank
}

func (s *spyPMM) PreConnect(cs *core.ConnState) error {
	s.conns[cs.Remote()] = cs
	return s.pmm.PreConnect(cs)
}

// spyStack is stack with the module registered through a spy.
func spyStack(t *testing.T, name string) (map[int]*core.Channel, map[int]*spyPMM) {
	t.Helper()
	sess, comms := baseComms(t, name)
	spies := map[int]*spyPMM{}
	err := core.RegisterDriver(core.DriverDef{
		Name:  name,
		Probe: func(*simnet.Node, int) error { return nil },
		New: func(node *simnet.Node, adapter, chanID int) (core.PMM, error) {
			spies[node.ID()] = &spyPMM{pmm: newPMM(comms[node.ID()], chanID), conns: map[int]*core.ConnState{}}
			return spies[node.ID()], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { core.UnregisterDriver(name) })
	chans, err := sess.NewChannel(core.ChannelSpec{Name: name + "-top", Driver: name})
	if err != nil {
		t.Fatal(err)
	}
	return chans, spies
}

// TestTMContract holds the module to the contract core's own TMs are held
// to (core.TestTMContract): a dynamic TM, a group that is each buffer in
// turn, and a channel link that is the selected TM's.
func TestTMContract(t *testing.T) {
	chans, spies := spyStack(t, "ompi-contract")
	a := vclock.NewActor("probe")
	tm, cs := spies[0].tm, spies[0].conns[1]
	if tm.StaticSize() != 0 {
		t.Errorf("StaticSize = %d", tm.StaticSize())
	}
	if _, err := tm.ObtainStaticBuffer(a, cs); !errors.Is(err, core.ErrNoStatic) {
		t.Errorf("ObtainStaticBuffer err = %v", err)
	}
	if _, err := tm.ReceiveStaticBuffer(a, cs); !errors.Is(err, core.ErrNoStatic) {
		t.Errorf("ReceiveStaticBuffer err = %v", err)
	}
	if err := tm.ReleaseStaticBuffer(a, cs, nil); !errors.Is(err, core.ErrNoStatic) {
		t.Errorf("ReleaseStaticBuffer err = %v", err)
	}
	for _, n := range []int{1, 1 << 10, 1 << 20} {
		if got, want := chans[0].Link(n), spies[0].Select(n, core.SendCheaper, core.ReceiveCheaper).Link(n); got != want {
			t.Errorf("Link(%d) = %+v, selected TM says %+v", n, got, want)
		}
	}

	payloads := [][]byte{bytes.Repeat([]byte{1}, 20000), bytes.Repeat([]byte{2}, 9000), bytes.Repeat([]byte{3}, 70000)}
	move := func(name string, grouped bool) (sEnd, rEnd vclock.Time) {
		chans, spies := spyStack(t, name)
		s, r := vclock.NewActor("s"), vclock.NewActor("r")
		sent := make(chan error, 1)
		go func() {
			cn, err := chans[0].BeginPacking(s, 1)
			if err == nil {
				// The blocks go through the TM directly, so the message
				// itself stays empty; EndPacking still returns the lease.
				// Driven directly, the TM is past core's announcement.
				defer cn.EndPacking()
				tm, cs := spies[0].tm, spies[0].conns[1]
				err = cs.Announce()
				if grouped && err == nil {
					err = tm.SendBufferGroup(s, cs, payloads)
				} else if !grouped {
					for _, p := range payloads {
						if err == nil {
							err = tm.SendBuffer(s, cs, p)
						}
					}
				}
			}
			if err != nil {
				chans[1].Close() // unblock the receiver
			}
			sent <- err
		}()
		cn, err := chans[1].BeginUnpacking(r)
		if err != nil {
			t.Fatalf("receive: %v (send: %v)", err, <-sent)
		}
		got := make([][]byte, len(payloads))
		for i, p := range payloads {
			got[i] = make([]byte, len(p))
		}
		tm, cs := spies[1].tm, spies[1].conns[0]
		if grouped {
			err = tm.ReceiveSubBufferGroup(r, cs, got)
		} else {
			for _, d := range got {
				if err == nil {
					err = tm.ReceiveBuffer(r, cs, d)
				}
			}
		}
		if err != nil {
			t.Fatalf("receive: %v", err)
		}
		if err := cn.EndUnpacking(); err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("send: %v", err)
		}
		for i, p := range payloads {
			if !bytes.Equal(got[i], p) {
				t.Fatalf("buffer %d arrived damaged", i)
			}
		}
		return s.Now(), r.Now()
	}
	gs, gr := move("ompi-contract-group", true)
	es, er := move("ompi-contract-each", false)
	if gs != es || gr != er {
		t.Errorf("group finished at send %v / receive %v, one by one at %v / %v", gs, gr, es, er)
	}
}
