package core

import (
	"bytes"
	"errors"
	"testing"

	"madeleine2/internal/model"
	"madeleine2/internal/rdma"
	"madeleine2/internal/vclock"
	"madeleine2/internal/via"
)

// viaLargeBlock moves one block through the via-large TM of chans, src
// from rank 0 into dst on rank 1, and returns each side's error. When the
// sender fails, the receiver's posted descriptor would wait forever, so
// its large VI is closed to end the block.
func viaLargeBlock(chans map[int]*Channel, src, dst []byte) (sendErr, recvErr error) {
	cs0, cs1 := chans[0].conns[1], chans[1].conns[0]
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- (&viaLarge{chans[1].pmm.(*viaPMM)}).ReceiveBuffer(vclock.NewActor("r"), cs1, dst)
	}()
	sendErr = (&viaLarge{chans[0].pmm.(*viaPMM)}).SendBuffer(vclock.NewActor("s"), cs0, src)
	if sendErr != nil {
		viaState(cs1).large.Close()
	}
	return sendErr, <-recvDone
}

// TestKeptRegistrationBoundsBlock: a registration kept from an 8 KiB
// block covers a 4 KiB block into the same buffer, and the NIC still
// writes no more than the 4 KiB block. via posts a descriptor of exactly
// the block, so an 8 KiB send fails with ErrTooSmall; rdma narrows the
// region to the block before its CTS, so an 8 KiB write fails with
// ErrOutOfRange. Either way the bytes past the block stay as they were.
func TestKeptRegistrationBoundsBlock(t *testing.T) {
	const big, small = 8 << 10, 4 << 10
	t.Run("via", func(t *testing.T) {
		chans, _ := newTestChannel(t, "via")
		src, dst := pattern(big, 1), make([]byte, big)
		if sErr, rErr := viaLargeBlock(chans, src, dst); sErr != nil || rErr != nil {
			t.Fatalf("first block: send %v, receive %v", sErr, rErr)
		}
		kept := viaState(chans[1].conns[0]).recvReg
		want := bytes.Clone(dst)
		src = pattern(big, 2)
		sErr, rErr := viaLargeBlock(chans, src, dst[:small])
		if !errors.Is(sErr, via.ErrTooSmall) {
			t.Fatalf("8 KiB into a 4 KiB block on a kept 8 KiB registration: %v, want ErrTooSmall", sErr)
		}
		if rErr == nil {
			t.Fatal("the receiver's block succeeded without its data")
		}
		if !bytes.Equal(dst, want) {
			t.Fatal("the refused block wrote into the destination")
		}
		// The failed block gives its registration up, so the descriptor it
		// left posted cannot reach dst.
		if kept.Registered() || viaState(chans[1].conns[0]).recvReg != nil {
			t.Error("a failed receive kept its registration")
		}
	})
	t.Run("rdma", func(t *testing.T) {
		chans, _ := newTestChannel(t, "rdma")
		a := vclock.NewActor("r")
		src, dst := pattern(big, 1), make([]byte, big)
		msg := []block{{src, SendCheaper, ReceiveCheaper}}
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := chans[1].BeginUnpacking(a)
			if err == nil {
				err = conn.Unpack(dst, SendCheaper, ReceiveCheaper)
			}
			if err == nil {
				err = conn.EndUnpacking()
			}
			if err != nil {
				t.Error(err)
			}
		}()
		sendMsg(t, chans[0], vclock.NewActor("s"), 1, msg)
		<-done
		st0, st1 := rdmaState(chans[0].conns[1]), rdmaState(chans[1].conns[0])
		kept := st1.rdvDst
		start := a.Now()
		region, err := chans[1].pmm.(*rdmaPMM).pin(a, st1, dst[:small])
		if err != nil {
			t.Fatal(err)
		}
		if region != kept || a.Now() != start {
			t.Fatalf("a 4 KiB block into the kept 8 KiB registration missed it (charged %v)", a.Now()-start)
		}
		want := bytes.Clone(dst)
		_, err = st0.ep.Write(vclock.NewActor("s"), st0.peerRdvDst, 0, pattern(big, 2), 0, model.RDMAWrite)
		if !errors.Is(err, rdma.ErrOutOfRange) {
			t.Fatalf("8 KiB into a 4 KiB block on a kept 8 KiB registration: %v, want ErrOutOfRange", err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatal("the refused write landed in the destination")
		}
	})
}

// TestKeptRegistrationReplaced: a block from memory the kept registration
// does not cover registers its own and deregisters the one it replaces,
// on via's send and receive sides and on rdma's receive side; the
// adapter's count stays where the first block left it.
func TestKeptRegistrationReplaced(t *testing.T) {
	const size = 16 << 10
	type registration interface{ Registered() bool }
	for _, tc := range []struct {
		drv    string
		kept   func(send, recv *ConnState) []registration
		pinned func(*Channel) int
	}{
		{"via", func(send, recv *ConnState) []registration {
			return []registration{viaState(send).sendReg, viaState(recv).recvReg}
		}, func(c *Channel) int { return c.pmm.(*viaPMM).nic.Registered() }},
		{"rdma", func(send, recv *ConnState) []registration {
			return []registration{rdmaState(recv).rdvDst}
		}, func(c *Channel) int { return c.pmm.(*rdmaPMM).hca.Registered() }},
	} {
		t.Run(tc.drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, tc.drv)
			s, r := vclock.NewActor("s"), vclock.NewActor("r")
			var old []registration
			var pinned [2]int
			for round := 0; round < 3; round++ {
				// A fresh buffer on both sides every round.
				msg := []block{{pattern(size, byte(round)), SendCheaper, ReceiveCheaper}}
				done := make(chan struct{})
				go func() {
					defer close(done)
					recvMsg(t, chans[1], r, msg)
				}()
				sendMsg(t, chans[0], s, 1, msg)
				<-done
				kept := tc.kept(chans[0].conns[1], chans[1].conns[0])
				for i, k := range kept {
					switch {
					case !k.Registered():
						t.Fatalf("round %d: kept registration %d is not registered", round, i)
					case old == nil:
					case old[i] == k:
						t.Fatalf("round %d: a fresh buffer hit kept registration %d", round, i)
					case old[i].Registered():
						t.Fatalf("round %d: replaced registration %d is still registered", round, i)
					}
				}
				old = kept
				got := [2]int{tc.pinned(chans[0]), tc.pinned(chans[1])}
				if round > 0 && got != pinned {
					t.Fatalf("round %d: ranks pin %v regions, %v after the first block", round, got, pinned)
				}
				pinned = got
			}
		})
	}
}

// TestKeptRegistrationCharge: a miss is charged what registering the
// buffer always cost, VIARegister or RDMARegister per page, and a hit
// on the kept registration is charged nothing.
func TestKeptRegistrationCharge(t *testing.T) {
	const pages = 3
	t.Run("via", func(t *testing.T) {
		chans, _ := newTestChannel(t, "via")
		p, st := chans[0].pmm.(*viaPMM), viaState(chans[0].conns[1])
		a := vclock.NewActor("app")
		buf := make([]byte, pages*model.VIAPageSize)
		p.pin(a, &st.sendReg, buf)
		if want := pages * model.VIARegister; a.Now() != want {
			t.Errorf("miss charged %v, want %v", a.Now(), want)
		}
		a.SetNow(0)
		for _, b := range [][]byte{buf, buf[:1], buf[:model.VIAPageSize+1]} {
			p.pin(a, &st.sendReg, b)
		}
		if a.Now() != 0 {
			t.Errorf("hits charged %v, want nothing", a.Now())
		}
		p.pin(a, &st.sendReg, buf[model.VIAPageSize:]) // another first byte
		if want := (pages - 1) * model.VIARegister; a.Now() != want {
			t.Errorf("a miss inside the kept registration charged %v, want %v", a.Now(), want)
		}
	})
	t.Run("rdma", func(t *testing.T) {
		chans, _ := newTestChannel(t, "rdma")
		p, st := chans[1].pmm.(*rdmaPMM), rdmaState(chans[1].conns[0])
		a := vclock.NewActor("app")
		buf := make([]byte, pages*model.RDMAPageSize)
		pin := func(b []byte) {
			t.Helper()
			if _, err := p.pin(a, st, b); err != nil {
				t.Fatal(err)
			}
		}
		pin(buf)
		if want := pages * model.RDMARegister; a.Now() != want {
			t.Errorf("miss charged %v, want %v", a.Now(), want)
		}
		a.SetNow(0)
		for _, b := range [][]byte{buf, buf[:1], buf[:model.RDMAPageSize+1]} {
			pin(b)
		}
		if a.Now() != 0 {
			t.Errorf("hits charged %v, want nothing", a.Now())
		}
		pin(buf[model.RDMAPageSize:])
		if want := (pages - 1) * model.RDMARegister; a.Now() != want {
			t.Errorf("a miss inside the kept registration charged %v, want %v", a.Now(), want)
		}
	})
}
