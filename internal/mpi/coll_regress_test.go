package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"madeleine2/internal/coll"
	"madeleine2/internal/core"
	"madeleine2/internal/rdma"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// collectErrs runs body on every rank and returns each rank's error.
func collectErrs(t *testing.T, cs []*Comm, body func(c *Comm) error) []error {
	t.Helper()
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			errs[i] = body(c)
		}(i, c)
	}
	wg.Wait()
	return errs
}

// TestAlltoallDrainsOnSizeError is the leak regression: a rank whose
// block length contradicts its peers' schedules must surface a typed
// SizeError on those peers WITHOUT leaking a single in-flight request —
// the old implementation returned on the first bad receive and never
// reaped its Isends. The communicators must stay usable afterwards.
func TestAlltoallDrainsOnSizeError(t *testing.T) {
	cs := comms(t, 3, "tcp")
	errs := collectErrs(t, cs, func(c *Comm) error {
		blk := 64
		if c.Rank() == 2 { // the liar ships 16-byte blocks
			blk = 16
		}
		in := make([]byte, 3*blk)
		out := make([]byte, 3*blk)
		return c.Alltoall(in, out)
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: alltoall succeeded despite the size liar", r)
		}
		var se *coll.SizeError
		if !errors.As(err, &se) {
			t.Fatalf("rank %d: error %v is not a *coll.SizeError", r, err)
		}
		if r != 2 && (se.Source != 2 || se.Got != 16 || se.Want != 64) {
			t.Fatalf("rank %d: SizeError %+v, want source 2 got 16 want 64", r, se)
		}
	}
	for r, c := range cs {
		if n := c.Inflight(); n != 0 {
			t.Fatalf("rank %d leaked %d in-flight requests", r, n)
		}
	}
	if err := cs[0].m.ch.Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	// The abort drained every stray block: the next collective matches
	// cleanly on the same communicators.
	payload := []byte("still alive after the abort")
	parallel(t, cs, func(c *Comm) {
		buf := make([]byte, len(payload))
		if c.Rank() == 0 {
			copy(buf, payload)
		}
		if err := c.Bcast(0, buf); err != nil {
			t.Errorf("rank %d: bcast after abort: %v", c.Rank(), err)
		} else if !bytes.Equal(buf, payload) {
			t.Errorf("rank %d: bcast after abort corrupted", c.Rank())
		}
	})
	if err := cs[0].m.ch.Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallDrainsUnderHostileFabric drives the rendezvous path (rdma,
// blocks above the eager crossover) into retransmit exhaustion with an
// always-corrupting fault plan: every rank must surface a real transport
// error — not hang — and reap every request.
func TestAlltoallDrainsUnderHostileFabric(t *testing.T) {
	const n = 3
	w := simnet.NewWorld(n)
	for i := 0; i < n; i++ {
		w.Node(i).AddAdapter(rdma.Network)
	}
	sess := core.NewSession(w)
	for _, a := range sess.World().Adapters() {
		a.SetFaults(&simnet.FaultPlan{Seed: 11, Corrupt: 1})
	}
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "hostile", Driver: "rdma"})
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]*Comm, n)
	for i := 0; i < n; i++ {
		if cs[i], err = NewComm(chans[i], vclock.NewActor(fmt.Sprintf("hostile-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	errs := collectErrs(t, cs, func(c *Comm) error {
		in := make([]byte, n*4096) // 4 KiB blocks: rendezvous territory
		out := make([]byte, n*4096)
		return c.Alltoall(in, out)
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d: alltoall succeeded on an always-corrupting fabric", r)
		}
	}
	for r, c := range cs {
		if k := c.Inflight(); k != 0 {
			t.Fatalf("rank %d leaked %d in-flight requests", r, k)
		}
	}
	if err := sess.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestBcastBinomialMessageCount pins the broadcast's rebased shape on
// the wire: the root of a binomial tree over n ranks sends exactly
// ceil(log2 n) messages (the old binary tree sent at most 2), and the
// whole collective moves exactly n-1.
func TestBcastBinomialMessageCount(t *testing.T) {
	for _, n := range []int{4, 8} {
		cs := comms(t, n, "tcp")
		before := make([]int64, n)
		for i, c := range cs {
			before[i] = c.m.ch.Stats().MessagesOut
		}
		parallel(t, cs, func(c *Comm) {
			buf := make([]byte, 256)
			if c.Rank() == 0 {
				for i := range buf {
					buf[i] = byte(i)
				}
			}
			if err := c.Bcast(0, buf); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
		})
		total := int64(0)
		for i, c := range cs {
			total += c.m.ch.Stats().MessagesOut - before[i]
		}
		rootSends := cs[0].m.ch.Stats().MessagesOut - before[0]
		if want := int64(bits.Len(uint(n - 1))); rootSends != want {
			t.Fatalf("n=%d: root sent %d messages, binomial wants %d", n, rootSends, want)
		}
		if total != int64(n-1) {
			t.Fatalf("n=%d: %d messages on the wire, want %d", n, total, n-1)
		}
	}
}

// TestGatherTypedSizeError is the corruption regression: a rank
// contributing the wrong block length must surface as a *coll.SizeError
// at the root, and the root's output region for that block must stay
// untouched — the old linear gather silently accepted short blocks.
func TestGatherTypedSizeError(t *testing.T) {
	cs := comms(t, 3, "tcp")
	const blk = 64
	var rootOut []byte
	errs := collectErrs(t, cs, func(c *Comm) error {
		n := blk
		if c.Rank() == 1 { // the liar contributes half a block
			n = blk / 2
		}
		in := make([]byte, n)
		for i := range in {
			in[i] = byte(c.Rank()*100 + i)
		}
		if c.Rank() != 0 {
			return c.Gather(0, in, nil)
		}
		rootOut = make([]byte, 3*blk)
		for i := range rootOut {
			rootOut[i] = 0xEE // sentinel: unwritten regions must keep it
		}
		return c.Gather(0, in, rootOut)
	})
	var se *coll.SizeError
	if !errors.As(errs[0], &se) {
		t.Fatalf("root error %v is not a *coll.SizeError", errs[0])
	}
	if se.Source != 1 || se.Got != blk/2 || se.Want != blk {
		t.Fatalf("root SizeError %+v, want source 1 got %d want %d", se, blk/2, blk)
	}
	for i, b := range rootOut[1*blk : 2*blk] {
		if b != 0xEE {
			t.Fatalf("liar's block region corrupted at offset %d: %#x", i, b)
		}
	}
	if errs[1] != nil || errs[2] != nil {
		t.Fatalf("leaf errors: %v / %v", errs[1], errs[2])
	}
	for r, c := range cs {
		if k := c.Inflight(); k != 0 {
			t.Fatalf("rank %d leaked %d in-flight requests", r, k)
		}
	}
	if err := cs[0].m.ch.Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
