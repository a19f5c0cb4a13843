// Package bench is the measurement harness that regenerates every table
// and figure of the paper's evaluation (§5 and §6.2): workload generators
// (ping-pong, one-way streams, forwarded streams, RSR echoes), parameter
// sweeps, the comparison baselines, and the text renderer the madbench
// command and EXPERIMENTS.md use. All times are virtual (see
// internal/vclock); a full reproduction runs in well under a second of
// wall-clock time.
package bench

import (
	"fmt"

	"madeleine2/internal/core"
	"madeleine2/internal/vclock"
)

// Point is one measurement of a size sweep.
type Point struct {
	Size   int
	OneWay vclock.Time
}

// Bandwidth reports the point's effective bandwidth in MB/s.
func (p Point) Bandwidth() float64 { return vclock.MBps(p.Size, p.OneWay) }

// Series is one labeled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// At returns the point for a given size, if present.
func (s Series) At(size int) (Point, bool) {
	for _, p := range s.Points {
		if p.Size == size {
			return p, true
		}
	}
	return Point{}, false
}

// Anchor is one paper-reported number compared against this run.
type Anchor struct {
	Name     string
	Paper    float64
	Measured float64
	Unit     string
}

// Delta reports the relative deviation from the paper's value.
func (a Anchor) Delta() float64 {
	if a.Paper == 0 {
		return 0
	}
	return (a.Measured - a.Paper) / a.Paper
}

// Result is one reproduced table or figure.
type Result struct {
	ID      string // "fig4", "table1", ...
	Title   string
	Series  []Series
	Anchors []Anchor
	Notes   string
}

// LatSizes is the small-message sweep of the latency panels.
var LatSizes = []int{4, 16, 64, 256, 1024, 4096}

// BwSizes is the bandwidth-panel sweep.
var BwSizes = []int{64, 256, 1024, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}

// steadyOneWay is the paper's repeated-transmission methodology: iters
// echo rounds of which the first two are warm-up and excluded, the rest
// averaged and halved to a one-way time. round performs one round trip on
// the initiator and reports its clock afterwards; echo, when non-nil,
// serves one round on the other side, on its own goroutine.
func steadyOneWay(iters int, round func() (vclock.Time, error), echo func() error) (vclock.Time, error) {
	const warm = 2
	if iters <= warm {
		iters = warm + 1
	}
	echoErr := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < iters && echo != nil && err == nil; i++ {
			err = echo()
		}
		echoErr <- err
	}()
	var tWarm, tEnd vclock.Time
	for i := 0; i < iters; i++ {
		t, err := round()
		if err != nil {
			return 0, err
		}
		if i == warm-1 {
			tWarm = t
		}
		tEnd = t
	}
	if err := <-echoErr; err != nil {
		return 0, err
	}
	return (tEnd - tWarm) / vclock.Time(2*(iters-warm)), nil
}

// PingPong measures the steady-state one-way time for n-byte
// CHEAPER/CHEAPER messages between ranks a and b of a channel.
func PingPong(chans map[int]*core.Channel, ra, rb, n, iters int) (vclock.Time, error) {
	initiator := vclock.NewActor("ping")
	echoer := vclock.NewActor("pong")
	payload, in, echoBuf := make([]byte, n), make([]byte, n), make([]byte, n)
	return steadyOneWay(iters, func() (vclock.Time, error) {
		if err := sendMsg(chans[ra], initiator, rb, payload); err != nil {
			return 0, err
		}
		err := recvMsg(chans[ra], initiator, in)
		return initiator.Now(), err
	}, func() error {
		if err := recvMsg(chans[rb], echoer, echoBuf); err != nil {
			return err
		}
		return sendMsg(chans[rb], echoer, ra, echoBuf)
	})
}

// sendMsg ships one single-block CHEAPER message.
func sendMsg(ch *core.Channel, a *vclock.Actor, dst int, data []byte) error {
	return ch.Send(a, dst, func(conn *core.Connection) error {
		return conn.Pack(data, core.SendCheaper, core.ReceiveCheaper)
	})
}

// recvMsg mirrors sendMsg.
func recvMsg(ch *core.Channel, a *vclock.Actor, buf []byte) error {
	return ch.Recv(a, func(conn *core.Connection) error {
		return conn.Unpack(buf, core.SendCheaper, core.ReceiveCheaper)
	})
}

// Sweep runs PingPong over sizes and returns the series.
func Sweep(name string, chans map[int]*core.Channel, ra, rb int, sizes []int) (Series, error) {
	s := Series{Name: name}
	for _, n := range sizes {
		t, err := PingPong(chans, ra, rb, n, 5)
		if err != nil {
			return s, fmt.Errorf("bench: %s at %d bytes: %w", name, n, err)
		}
		s.Points = append(s.Points, Point{Size: n, OneWay: t})
	}
	return s, nil
}
