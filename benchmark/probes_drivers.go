package main

import (
	"fmt"
	"sync"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/model"
	"madeleine2/internal/mpi"
	"madeleine2/internal/nexus"
	"madeleine2/internal/rdma"
	"madeleine2/internal/sbp"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/vclock"
	"madeleine2/internal/via"
)

// Raw-driver probes: a 1 KiB round trip through each driver's own API, no
// core on top. They are the floor under the pmm.<driver>.* lanes: lane
// cost minus raw cost is what core and the PMM add.

const rawBytes = 1 << 10

// rawEnd is one side of a raw round trip: send ships rawBytes to the peer,
// recv takes delivery of the peer's.
type rawEnd struct {
	send func(a *vclock.Actor, data []byte) error
	recv func(a *vclock.Actor, into []byte) error
}

// rawRoundTrips runs iters ping-pongs between the two ends, the echo side
// on its own goroutine, probeReps times over.
func rawRoundTrips(ping, pong rawEnd, seed int64, iters int) (float64, error) {
	data, back, ebuf := make([]byte, rawBytes), make([]byte, rawBytes), make([]byte, rawBytes)
	fillPattern(data, seed, 800)
	a, b := vclock.NewActor("raw-ping"), vclock.NewActor("raw-pong")
	var wg sync.WaitGroup
	var echoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < probeReps*iters && echoErr == nil; i++ {
			if echoErr = pong.recv(b, ebuf); echoErr == nil {
				echoErr = pong.send(b, ebuf)
			}
		}
	}()
	ns, _, err := probeLoop(iters, func() error {
		if err := ping.send(a, data); err != nil {
			return err
		}
		return ping.recv(a, back)
	})
	if err != nil {
		return 0, err // the echoer may be parked in recv; the process exits non-zero
	}
	wg.Wait()
	if echoErr != nil {
		return 0, echoErr
	}
	if !sameBytes(back, data, verifyFull) {
		return 0, fmt.Errorf("echoed payload differs")
	}
	return ns, nil
}

// rawWorld builds two nodes with one adapter each on the given fabric.
func rawWorld(network string) *simnet.World {
	w := simnet.NewWorld(2)
	w.Node(0).AddAdapter(network)
	w.Node(1).AddAdapter(network)
	return w
}

func probeRawDrivers(m metricSet, cfg config) error {
	iters := scaled(10000, cfg.scale)
	for _, p := range []struct {
		metric string
		ends   func() (rawEnd, rawEnd, error)
	}{
		{"sisci.raw_rt_ns", rawSISCI}, {"bip.raw_rt_ns", rawBIP}, {"tcpnet.raw_rt_ns", rawTCP},
		{"via.raw_rt_ns", rawVIA}, {"sbp.raw_rt_ns", rawSBP}, {"rdma.raw_rt_ns", rawRDMA},
	} {
		ping, pong, err := p.ends()
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		ns, err := rawRoundTrips(ping, pong, cfg.seed, iters)
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
		m.set(p.metric, ns)
	}
	return nil
}

func rawSISCI() (rawEnd, rawEnd, error) {
	w := rawWorld(sisci.Network)
	end := func(self, peer int, devs [2]*sisci.Dev, local [2]*sisci.LocalSegment) (rawEnd, error) {
		remote, err := devs[self].ConnectSegment(peer, 0, 1)
		if err != nil {
			return rawEnd{}, err
		}
		return rawEnd{
			send: func(a *vclock.Actor, data []byte) error {
				remote.MemCpy(a, 0, data, model.SISCIPIO, 0)
				return nil
			},
			recv: func(a *vclock.Actor, into []byte) error {
				off, n, _, ok := local[self].WaitWrite(a)
				if !ok || n != len(into) {
					return fmt.Errorf("sisci: write of %d bytes, ok=%v", n, ok)
				}
				local[self].Read(off, into)
				return nil
			},
		}, nil
	}
	var devs [2]*sisci.Dev
	var local [2]*sisci.LocalSegment
	for i := range devs {
		d, err := sisci.Attach(w.Node(i), 0)
		if err != nil {
			return rawEnd{}, rawEnd{}, err
		}
		devs[i], local[i] = d, d.CreateSegment(1, rawBytes)
	}
	ping, err := end(0, 1, devs, local)
	if err != nil {
		return rawEnd{}, rawEnd{}, err
	}
	pong, err := end(1, 0, devs, local)
	return ping, pong, err
}

// rawBIP uses the long-message path: 1 KiB is not below bip.ShortMax.
func rawBIP() (rawEnd, rawEnd, error) {
	w := rawWorld(bip.Network)
	end := func(self, peer int) (rawEnd, error) {
		b, err := bip.Attach(w.Node(self), 0)
		if err != nil {
			return rawEnd{}, err
		}
		return rawEnd{
			send: func(a *vclock.Actor, data []byte) error { return b.TSendLong(a, peer, 0, data) },
			recv: func(a *vclock.Actor, into []byte) error {
				_, err := b.TRecvLong(a, peer, 0, into)
				return err
			},
		}, nil
	}
	ping, err := end(0, 1)
	if err != nil {
		return rawEnd{}, rawEnd{}, err
	}
	pong, err := end(1, 0)
	return ping, pong, err
}

func rawTCP() (rawEnd, rawEnd, error) {
	w := rawWorld(tcpnet.Network)
	end := func(self, peer int) (rawEnd, error) {
		e, err := tcpnet.Attach(w.Node(self), 0)
		if err != nil {
			return rawEnd{}, err
		}
		return rawEnd{
			send: func(a *vclock.Actor, data []byte) error { return e.Send(a, peer, 0, data) },
			recv: func(a *vclock.Actor, into []byte) error {
				got, err := e.Recv(a, peer, 0)
				if err == nil && copy(into, got) != len(into) {
					err = fmt.Errorf("tcpnet: short message of %d bytes", len(got))
				}
				return err
			},
		}, nil
	}
	ping, err := end(0, 1)
	if err != nil {
		return rawEnd{}, rawEnd{}, err
	}
	pong, err := end(1, 0)
	return ping, pong, err
}

// rawVIA keeps one receive descriptor posted per side: a side re-posts its
// region as soon as it has consumed a message, which is always before the
// peer's next send (the peer waits for the reply first).
func rawVIA() (rawEnd, rawEnd, error) {
	w := rawWorld(via.Network)
	setup := vclock.NewActor("raw-via-setup")
	var vis [2]*via.VI
	var tx, rx [2]*via.MemRegion
	for i := range vis {
		nic, err := via.Attach(w.Node(i), 0)
		if err != nil {
			return rawEnd{}, rawEnd{}, err
		}
		vis[i] = nic.CreateVI(1, 1-i, 0)
		tx[i] = nic.Register(setup, make([]byte, rawBytes))
		rx[i] = nic.Register(setup, make([]byte, rawBytes))
		if err := vis[i].PostRecv(rx[i]); err != nil {
			return rawEnd{}, rawEnd{}, err
		}
	}
	end := func(self int) rawEnd {
		return rawEnd{
			send: func(a *vclock.Actor, data []byte) error {
				copy(tx[self].Bytes(), data)
				return vis[self].Send(a, tx[self], len(data), model.VIASend)
			},
			recv: func(a *vclock.Actor, into []byte) error {
				reg, n, err := vis[self].WaitRecv(a)
				if err != nil {
					return err
				}
				copy(into, reg.Bytes()[:n])
				return vis[self].PostRecv(reg)
			},
		}
	}
	return end(0), end(1), nil
}

func rawSBP() (rawEnd, rawEnd, error) {
	w := rawWorld(sbp.Network)
	end := func(self, peer int) (rawEnd, error) {
		e, err := sbp.Attach(w.Node(self), 0)
		if err != nil {
			return rawEnd{}, err
		}
		return rawEnd{
			send: func(a *vclock.Actor, data []byte) error {
				b := e.ObtainBuffer()
				copy(b.Bytes(), data)
				return e.Send(a, peer, 0, b, len(data))
			},
			recv: func(a *vclock.Actor, into []byte) error {
				b, n, err := e.Recv(a, peer, 0)
				if err != nil {
					return err
				}
				copy(into, b.Bytes()[:n])
				e.Release(b)
				return nil
			},
		}, nil
	}
	ping, err := end(0, 1)
	if err != nil {
		return rawEnd{}, rawEnd{}, err
	}
	pong, err := end(1, 0)
	return ping, pong, err
}

// rawRDMA writes into the peer's registered region and reaps its own send
// completion, so the endpoint's completion queue stays empty.
func rawRDMA() (rawEnd, rawEnd, error) {
	w := rawWorld(rdma.Network)
	setup := vclock.NewActor("raw-rdma-setup")
	var eps [2]*rdma.EP
	var regions [2]*rdma.MemRegion
	for i := range eps {
		h, err := rdma.Attach(w.Node(i), 0)
		if err != nil {
			return rawEnd{}, rawEnd{}, err
		}
		if regions[i], err = h.Register(setup, 1, make([]byte, rawBytes)); err != nil {
			return rawEnd{}, rawEnd{}, err
		}
		eps[i] = h.Dial(1-i, 0)
	}
	end := func(self int) rawEnd {
		return rawEnd{
			send: func(a *vclock.Actor, data []byte) error {
				if _, err := eps[self].Write(a, 1, 0, data, 0, model.RDMAWrite); err != nil {
					return err
				}
				if _, ok := eps[self].WaitSend(a); !ok {
					return fmt.Errorf("rdma: endpoint closed")
				}
				return nil
			},
			recv: func(a *vclock.Actor, into []byte) error {
				c, err := regions[self].WaitWrite(a)
				if err != nil {
					return err
				}
				copy(into, regions[self].Bytes()[c.Off:c.Off+c.Len])
				return nil
			},
		}
	}
	return end(0), end(1), nil
}

// probeMPI: a 1 KiB Sendrecv round trip on two ranks, and Allreduce /
// Alltoall on eight. No workload runs mpi; these are read by eye when the
// executor-collapse item touches mpi.runSchedule.
func probeMPI(m metricSet, cfg config) error {
	sess := core.NewSession(rawWorld(tcpnet.Network))
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "probe-mpi2", Driver: "tcp"})
	if err != nil {
		return err
	}
	var comms [2]*mpi.Comm
	for r := range comms {
		if comms[r], err = mpi.NewComm(chans[r], vclock.NewActor(fmt.Sprintf("mpi-%d", r))); err != nil {
			return err
		}
	}
	iters := scaled(5000, cfg.scale)
	out, in, ebuf := make([]byte, rawBytes), make([]byte, rawBytes), make([]byte, rawBytes)
	fillPattern(out, cfg.seed, 801)
	var wg sync.WaitGroup
	var echoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < probeReps*iters && echoErr == nil; i++ {
			if _, echoErr = comms[1].Recv(0, 0, ebuf); echoErr == nil {
				echoErr = comms[1].Send(0, 0, ebuf)
			}
		}
	}()
	ns, allocs, err := probeLoop(iters, func() error {
		_, err := comms[0].Sendrecv(1, 0, out, 1, 0, in)
		return err
	})
	if err != nil {
		return fmt.Errorf("mpi sendrecv: %w", err)
	}
	wg.Wait()
	if echoErr != nil {
		return fmt.Errorf("mpi echo: %w", echoErr)
	}
	if !sameBytes(in, out, verifyFull) {
		return fmt.Errorf("mpi sendrecv: echoed payload differs")
	}
	m.set("mpi.sendrecv_1k_rt_ns", ns)
	m.set("mpi.sendrecv_1k_allocs", allocs)
	inflight := comms[0].Inflight() + comms[1].Inflight()
	comms[0].Close()
	comms[1].Close()
	chans[0].Close()
	chans[1].Close()
	sess.Shutdown()

	sess8, chans8, err := eightRanks("probe-mpi8", core.SessionSpec{})
	if err != nil {
		return err
	}
	defer sess8.Shutdown()
	world := make([]*mpi.Comm, 8)
	vec, sum := make([][]float64, 8), make([][]float64, 8)
	a2aIn, a2aOut := make([][]byte, 8), make([][]byte, 8)
	for r := range world {
		if world[r], err = mpi.NewComm(chans8[r], vclock.NewActor(fmt.Sprintf("mpi8-%d", r))); err != nil {
			return err
		}
		vec[r], sum[r] = make([]float64, llmStats), make([]float64, llmStats)
		for i := range vec[r] {
			vec[r][i] = float64(r + i)
		}
		a2aIn[r], a2aOut[r] = make([]byte, 8*rawBytes), make([]byte, 8*rawBytes)
		fillPattern(a2aIn[r], cfg.seed, uint64(810+r))
	}
	collIters := scaled(200, cfg.scale)
	d, err := onRanks(8, collIters, func(r int) error { return world[r].Allreduce(vec[r], sum[r], mpi.Sum) })
	if err != nil {
		return fmt.Errorf("mpi allreduce: %w", err)
	}
	for i, v := range sum[3] {
		if want := float64(8*i + 28); v != want {
			return fmt.Errorf("mpi allreduce: element %d is %v, want %v", i, v, want)
		}
	}
	m.set("mpi.allreduce_8r_wall_us", float64(d.Nanoseconds())/1e3)
	d, err = onRanks(8, collIters, func(r int) error { return world[r].Alltoall(a2aIn[r], a2aOut[r]) })
	if err != nil {
		return fmt.Errorf("mpi alltoall: %w", err)
	}
	for r := range world {
		for src := range world {
			if !sameBytes(a2aOut[r][src*rawBytes:(src+1)*rawBytes], a2aIn[src][r*rawBytes:(r+1)*rawBytes], verifyFull) {
				return fmt.Errorf("mpi alltoall: rank %d holds a wrong block from %d", r, src)
			}
		}
	}
	m.set("mpi.alltoall_8r_wall_us", float64(d.Nanoseconds())/1e3)
	for _, c := range world {
		inflight += c.Inflight()
		c.Close()
	}
	for _, ch := range chans8 {
		ch.Close()
	}
	m.set("mpi.inflight_after", float64(inflight))
	return nil
}

// probeNexus: a 1 KiB remote service request echoed back by the handler
// thread of the peer (the Fig. 7 echo service).
func probeNexus(m metricSet, cfg config) error {
	sess := core.NewSession(rawWorld(tcpnet.Network))
	defer sess.Shutdown()
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "probe-nexus", Driver: "tcp"})
	if err != nil {
		return err
	}
	p0, p1 := nexus.Attach(chans[0]), nexus.Attach(chans[1])
	defer p0.Close()
	defer p1.Close()
	back, err := p1.Bind(0)
	if err != nil {
		return err
	}
	// Handlers run on the dispatcher thread and cannot return an error:
	// they report through the reply channel instead.
	type reply struct {
		at  vclock.Time
		err error
	}
	replies := make(chan reply, 1) // one request is in flight at a time
	p1.Register(1, func(a *vclock.Actor, from int, buf *nexus.Buffer) {
		data, err := buf.GetBytes()
		if err == nil {
			err = back.RSR(a, 2, nexus.NewBuffer().PutBytes(data))
		}
		if err != nil {
			replies <- reply{err: err}
		}
	})
	body := make([]byte, rawBytes)
	fillPattern(body, cfg.seed, 802)
	p0.Register(2, func(a *vclock.Actor, from int, buf *nexus.Buffer) {
		data, err := buf.GetBytes()
		if err == nil && !sameBytes(data, body, verifyFull) {
			err = fmt.Errorf("echoed body differs")
		}
		replies <- reply{at: a.Now(), err: err}
	})
	out, err := p0.Bind(1)
	if err != nil {
		return err
	}
	app := vclock.NewActor("nexus-app")
	ns, allocs, err := probeLoop(scaled(5000, cfg.scale), func() error {
		if err := out.RSR(app, 1, nexus.NewBuffer().PutBytes(body)); err != nil {
			return err
		}
		r := <-replies
		app.Sync(r.at)
		return r.err
	})
	if err != nil {
		return fmt.Errorf("nexus rsr: %w", err)
	}
	m.set("nexus.rsr_echo_1k_rt_ns", ns)
	m.set("nexus.rsr_echo_1k_allocs", allocs)
	return nil
}
