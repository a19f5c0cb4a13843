// Package marcel implements the paper's closing line of work: "the
// integration of Madeleine II with our user-level multithreading library
// Marcel by the design and development of advanced adaptive
// polling/interruption network interaction mechanisms" (§7).
//
// The question it answers: what should a thread do while a message has
// not arrived yet?
//
//   - Polling: spin on the network. Minimal added latency (half a poll
//     period on average), but the CPU is burnt for the whole wait — other
//     threads of the PM2-style runtime starve.
//   - Interrupt: block and let the NIC raise an interrupt. The CPU is
//     free for other threads, but every wakeup pays the kernel's
//     interrupt-and-reschedule latency.
//   - Adaptive: spin for a short grace window (messages in RPC-style
//     runtimes usually answer quickly), then arm the interrupt — the
//     spin-then-block policy Marcel used.
//
// A Listener wraps a Madeleine channel's receive side with one of these
// policies and accounts both the added latency and the CPU time burnt
// while waiting, so the trade-off is measurable (see the
// `madbench -ablations` polling workload).
package marcel

import (
	"fmt"

	"madeleine2/internal/core"
	"madeleine2/internal/vclock"
)

// Policy selects the network interaction mechanism.
type Policy int

const (
	// Polling spins on the network until the message arrives.
	Polling Policy = iota
	// Interrupt blocks; the arrival pays the interrupt latency.
	Interrupt
	// Adaptive spins for the grace window, then arms the interrupt.
	Adaptive
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Polling:
		return "polling"
	case Interrupt:
		return "interrupt"
	default:
		return "adaptive"
	}
}

// Config holds the mechanism's cost parameters.
type Config struct {
	// PollPeriod is the spacing of network polls while spinning; an
	// arrival waits half a period on average (we charge the half-period).
	PollPeriod vclock.Time
	// IRQLatency is the interrupt-plus-reschedule wakeup cost (a kernel
	// round through the Linux 2.2 of the testbed).
	IRQLatency vclock.Time
	// Spin is the adaptive policy's grace window.
	Spin vclock.Time
}

// DefaultConfig carries era-plausible values.
func DefaultConfig() Config {
	return Config{
		PollPeriod: vclock.Micros(1),
		IRQLatency: vclock.Micros(12),
		Spin:       vclock.Micros(20),
	}
}

// Stats accumulates a listener's accounting.
type Stats struct {
	Receives   int
	Waited     int         // receives that found no message ready
	Interrupts int         // wakeups that paid the IRQ latency
	CPUBusy    vclock.Time // CPU burnt spinning (unavailable to other threads)
	AddedLat   vclock.Time // latency added by the mechanism
}

// Listener wraps one channel's receive side with a policy.
type Listener struct {
	ch    *core.Channel
	pol   Policy
	cfg   Config
	stats Stats
}

// NewListener builds a listener; a zero Config selects DefaultConfig.
func NewListener(ch *core.Channel, pol Policy, cfg Config) *Listener {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	return &Listener{ch: ch, pol: pol, cfg: cfg}
}

// Stats reports the accumulated accounting.
func (l *Listener) Stats() Stats { return l.stats }

// Policy reports the listener's mechanism.
func (l *Listener) Policy() Policy { return l.pol }

// Conn is a policy-wrapped incoming message: its first Unpack applies the
// mechanism's latency and CPU accounting, subsequent calls pass through.
// It cannot end the message; Serve does. It wraps the connection slot core's
// Channel.Recv lends, so it is valid only until Serve's f returns.
type Conn struct {
	conn  *core.Connection
	l     *Listener
	t0    vclock.Time
	first bool
}

// Serve receives the next message under the policy: core's Channel.Recv
// with the policy's accounting around f's first Unpack. f must not keep
// the *Conn past its return.
func (l *Listener) Serve(a *vclock.Actor, f func(*Conn) error) error {
	t0 := a.Now()
	return l.ch.Recv(a, func(conn *core.Connection) error {
		l.stats.Receives++
		return f(&Conn{conn: conn, l: l, t0: t0, first: true})
	})
}

// Remote reports the node the message came from.
func (c *Conn) Remote() int { return c.conn.Remote() }

// Unpack extracts a block; the first extraction of the message charges
// the policy's waiting costs.
func (c *Conn) Unpack(dst []byte, sm core.SendMode, rm core.RecvMode) error {
	if err := c.conn.Unpack(dst, sm, rm); err != nil {
		return err
	}
	if !c.first {
		return nil
	}
	c.first = false
	a := c.conn.Actor()
	waited := a.Now() - c.t0
	if waited < 0 {
		waited = 0
	}
	l := c.l
	if waited > 0 {
		l.stats.Waited++
	}
	switch l.pol {
	case Polling:
		// The whole wait is burnt spinning; the arrival is noticed half a
		// poll period late on average.
		l.stats.CPUBusy += waited + l.cfg.PollPeriod/2
		l.stats.AddedLat += l.cfg.PollPeriod / 2
		a.Advance(l.cfg.PollPeriod / 2)
	case Interrupt:
		// The CPU was free, but the wakeup pays the interrupt latency —
		// even an already-arrived message is noticed through the kernel.
		l.stats.Interrupts++
		l.stats.AddedLat += l.cfg.IRQLatency
		a.Advance(l.cfg.IRQLatency)
	case Adaptive:
		if waited <= l.cfg.Spin {
			// Caught within the grace window: poll-like costs.
			l.stats.CPUBusy += waited + l.cfg.PollPeriod/2
			l.stats.AddedLat += l.cfg.PollPeriod / 2
			a.Advance(l.cfg.PollPeriod / 2)
		} else {
			// Spun the window for nothing, then slept until the IRQ.
			l.stats.CPUBusy += l.cfg.Spin
			l.stats.Interrupts++
			l.stats.AddedLat += l.cfg.IRQLatency
			a.Advance(l.cfg.IRQLatency)
		}
	default:
		panic(fmt.Sprintf("marcel: unknown policy %d", l.pol))
	}
	return nil
}
