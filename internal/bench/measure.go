package bench

import (
	"fmt"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/mpi"
	"madeleine2/internal/nexus"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// RawBIPPingPong measures the raw driver's steady one-way time (the "raw
// BIP" reference numbers of §5.2.2: 5 µs, 126 MB/s).
func RawBIPPingPong(n, iters int) (vclock.Time, error) {
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(bip.Network)
	w.Node(1).AddAdapter(bip.Network)
	b0, err := bip.Attach(w.Node(0), 0)
	if err != nil {
		return 0, err
	}
	b1, err := bip.Attach(w.Node(1), 0)
	if err != nil {
		return 0, err
	}
	xfer := func(b *bip.Interface, a *vclock.Actor, dst int, data []byte) error {
		if len(data) < bip.ShortMax {
			return b.TSendShort(a, dst, 0, data)
		}
		return b.TSendLong(a, dst, 0, data)
	}
	grab := func(b *bip.Interface, a *vclock.Actor, src int, buf []byte) error {
		if len(buf) < bip.ShortMax {
			_, err := b.TRecvShort(a, src, 0)
			return err
		}
		_, err := b.TRecvLong(a, src, 0, buf)
		return err
	}
	ping, pong := vclock.NewActor("raw-ping"), vclock.NewActor("raw-pong")
	payload, echoBuf := make([]byte, n), make([]byte, n)
	return steadyOneWay(iters, func() (vclock.Time, error) {
		if err := xfer(b0, ping, 1, payload); err != nil {
			return 0, err
		}
		err := grab(b0, ping, 1, payload)
		return ping.Now(), err
	}, func() error {
		if err := grab(b1, pong, 0, echoBuf); err != nil {
			return err
		}
		return xfer(b1, pong, 0, echoBuf)
	})
}

// ForwardedStream measures the steady per-message one-way time of
// msgBytes-sized messages through a virtual channel, by streaming a warm-up
// message followed by a timed one and taking the receiver-side delta.
func ForwardedStream(vcs map[int]*fwd.VC, src, dst, msgBytes int) (vclock.Time, error) {
	const msgs = 3
	payload := make([]byte, msgBytes)
	errc := make(chan error, 1)
	go func() {
		a := vclock.NewActor("fwd-src")
		for i := 0; i < msgs; i++ {
			conn, err := vcs[src].BeginPacking(a, dst)
			if err != nil {
				errc <- err
				return
			}
			if err := conn.Pack(payload, core.SendCheaper, core.ReceiveCheaper); err != nil {
				errc <- err
				return
			}
			if err := conn.EndPacking(); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	r := vclock.NewActor("fwd-dst")
	var prev vclock.Time
	for i := 0; i < msgs; i++ {
		conn, err := vcs[dst].BeginUnpacking(r)
		if err != nil {
			return 0, err
		}
		buf := make([]byte, msgBytes)
		if err := conn.Unpack(buf, core.SendCheaper, core.ReceiveCheaper); err != nil {
			return 0, err
		}
		if err := conn.EndUnpacking(); err != nil {
			return 0, err
		}
		if i == msgs-2 {
			prev = r.Now()
		}
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	return r.Now() - prev, nil
}

// MPIPingPong measures ch_mad's steady one-way time for n-byte messages
// over the given driver.
func MPIPingPong(driver string, n int) (vclock.Time, error) {
	_, chans, err := TwoNodes(driver, nil)
	if err != nil {
		return 0, err
	}
	c0, err := mpi.NewComm(chans[0], vclock.NewActor("mpi-0"))
	if err != nil {
		return 0, err
	}
	c1, err := mpi.NewComm(chans[1], vclock.NewActor("mpi-1"))
	if err != nil {
		return 0, err
	}
	out, in, echoBuf := make([]byte, n), make([]byte, n), make([]byte, n)
	return steadyOneWay(5, func() (vclock.Time, error) {
		_, err := c0.Sendrecv(1, 0, out, 1, 0, in)
		return c0.Actor().Now(), err
	}, func() error {
		if _, err := c1.Recv(0, 0, echoBuf); err != nil {
			return err
		}
		return c1.Send(0, 0, echoBuf)
	})
}

// NexusRSREcho measures the steady one-way RSR time for n-byte bodies over
// the given driver (the Fig. 7 echo service).
func NexusRSREcho(driver string, n int) (vclock.Time, error) {
	_, chans, err := TwoNodes(driver, nil)
	if err != nil {
		return 0, err
	}
	p0, p1 := nexus.Attach(chans[0]), nexus.Attach(chans[1])
	defer p0.Close()
	defer p1.Close()
	sp10, err := p1.Bind(0)
	if err != nil {
		return 0, err
	}
	p1.Register(1, func(a *vclock.Actor, from int, buf *nexus.Buffer) {
		data, err := buf.GetBytes()
		if err != nil {
			panic(fmt.Sprintf("bench: echo handler: %v", err))
		}
		if err := sp10.RSR(a, 2, nexus.NewBuffer().PutBytes(data)); err != nil {
			panic(fmt.Sprintf("bench: echo reply: %v", err))
		}
	})
	done := make(chan vclock.Time, 8)
	p0.Register(2, func(a *vclock.Actor, from int, buf *nexus.Buffer) {
		done <- a.Now()
	})
	sp01, err := p0.Bind(1)
	if err != nil {
		return 0, err
	}
	a := vclock.NewActor("nexus-app")
	return steadyOneWay(5, func() (vclock.Time, error) {
		if err := sp01.RSR(a, 1, nexus.NewBuffer().PutBytes(make([]byte, n))); err != nil {
			return 0, err
		}
		t := <-done
		a.Sync(t)
		return t, nil
	}, nil)
}

// BlocksOneWay measures one multi-block message's one-way time with every
// block using the given modes (ablation workloads).
func BlocksOneWay(driver string, blocks, blockSize int, sm core.SendMode, rm core.RecvMode) (vclock.Time, error) {
	_, chans, err := TwoNodes(driver, nil)
	if err != nil {
		return 0, err
	}
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	errc := make(chan error, 1)
	go func() {
		data := make([]byte, blockSize)
		errc <- chans[0].Send(s, 1, func(conn *core.Connection) error {
			for i := 0; i < blocks; i++ {
				if err := conn.Pack(data, sm, rm); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	buf := make([]byte, blockSize)
	err = chans[1].Recv(r, func(conn *core.Connection) error {
		for i := 0; i < blocks; i++ {
			if err := conn.Unpack(buf, sm, rm); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	return r.Now(), nil
}
