// Package nexus implements the Nexus-over-Madeleine II port of §5.3.2: a
// compact remote-service-request (RSR) runtime in the style of Foster,
// Kesselman and Tuecke's Nexus, using Madeleine channels as its protocol
// module — "Madeleine II is currently seen as one protocol by Nexus".
//
// The model: each process registers handlers; a startpoint is bound to a
// remote process's context; issuing an RSR on a startpoint ships a handler
// identifier plus a user buffer, and a dispatcher thread on the remote
// process runs the handler. Nexus's connection-oriented initialization is
// mapped onto Madeleine's cluster-oriented channels by binding startpoints
// lazily (the impedance mismatch §5.3.2 describes).
package nexus

import (
	"encoding/binary"
	"fmt"
	"sync"

	"madeleine2/internal/core"
	"madeleine2/internal/vclock"
)

// rsrOverhead is the per-side cost of the Nexus machinery (handler table
// lookup, context management, buffer bookkeeping) — "a rather heavy
// interface": Madeleine's 3.9 µs SISCI latency becomes a ~23 µs RSR
// latency (Fig. 7: "minimal latency below 25 µs").
var rsrOverhead = vclock.Micros(8)

// Handler processes one incoming remote service request. It runs on the
// process's dispatcher thread; a is that thread's virtual clock. Handlers
// may issue RSRs of their own (e.g. to reply).
type Handler func(a *vclock.Actor, from int, buf *Buffer)

// Process is one node's Nexus context over one or several Madeleine
// channels ("Nexus features multiprotocol support and Madeleine II is
// currently seen as one protocol by Nexus", §5.3.2).
type Process struct {
	chans []*core.Channel
	rank  int
	mu    sync.Mutex
	table map[uint32]Handler
	wg    sync.WaitGroup // one dispatcher per channel
}

// Attach builds the Nexus context of one rank and starts its dispatcher.
func Attach(ch *core.Channel) *Process { return AttachMulti(ch) }

// AttachMulti builds a Nexus context over several protocol modules: the
// §5.3.2 Globus scenario — "regular TCP/Nexus protocol for wide area
// transmission and the Madeleine II Nexus protocol for local cluster
// high-performance computation". Startpoints pick the cheapest protocol
// that reaches their destination. All channels must belong to one rank.
func AttachMulti(chans ...*core.Channel) *Process {
	if len(chans) == 0 {
		panic("nexus: AttachMulti needs at least one channel")
	}
	p := &Process{
		chans: chans,
		rank:  chans[0].Rank(),
		table: make(map[uint32]Handler),
	}
	for _, ch := range chans {
		if ch.Rank() != p.rank {
			panic("nexus: channels of one process must share the rank")
		}
		p.wg.Add(1)
		go p.dispatch(ch)
	}
	return p
}

// Rank reports the process's node rank.
func (p *Process) Rank() int { return p.rank }

// Register binds a handler id. Re-registering replaces the handler.
func (p *Process) Register(id uint32, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.table[id] = h
}

// Close stops the dispatchers once pending requests drain and returns
// when they have.
func (p *Process) Close() {
	for _, ch := range p.chans {
		ch.Close()
	}
	p.wg.Wait()
}

// Startpoint is a remote-invocation capability bound to a remote process,
// the moral equivalent of a Nexus global pointer's startpoint. It carries
// the protocol selected for its destination.
type Startpoint struct {
	p      *Process
	ch     *core.Channel
	remote int
}

// Bind returns a startpoint to the remote rank, selecting the process's
// cheapest protocol (by small-message cost) that reaches it.
func (p *Process) Bind(remote int) (*Startpoint, error) {
	if remote == p.rank {
		return nil, fmt.Errorf("nexus: cannot bind a startpoint to self")
	}
	var best *core.Channel
	for _, ch := range p.chans {
		reaches := false
		for _, m := range ch.Members() {
			if m == remote {
				reaches = true
			}
		}
		if !reaches {
			continue
		}
		if best == nil || ch.Link(64).Time(64) < best.Link(64).Time(64) {
			best = ch
		}
	}
	if best == nil {
		return nil, fmt.Errorf("nexus: rank %d is not reachable on any of the process's protocols", remote)
	}
	return &Startpoint{p: p, ch: best, remote: remote}, nil
}

// Protocol reports the name of the protocol module the startpoint uses.
func (s *Startpoint) Protocol() string { return s.ch.PMMName() }

// Remote reports the startpoint's target rank.
func (s *Startpoint) Remote() int { return s.remote }

// RSR issues a remote service request: handler id plus the buffer's
// contents. The envelope travels express (the dispatcher needs it to look
// up the handler and size the extraction), the body cheaper — the same
// split Madeleine was designed around.
func (s *Startpoint) RSR(a *vclock.Actor, handler uint32, buf *Buffer) error {
	a.Advance(rsrOverhead)
	return s.ch.Send(a, s.remote, func(conn *core.Connection) error {
		body := buf.Bytes()
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], handler)
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(body)))
		if err := conn.Pack(hdr[:], core.SendSafer, core.ReceiveExpress); err != nil || len(body) == 0 {
			return err
		}
		return conn.Pack(body, core.SendCheaper, core.ReceiveCheaper)
	})
}

// dispatch is the handler thread of one protocol module. It runs
// concurrently with application threads issuing RSRs on the same channel
// (including toward the same peer): core's per-direction leases make each
// connection full duplex, so the dispatcher's receive path never contends
// with a sender's state.
func (p *Process) dispatch(ch *core.Channel) {
	defer p.wg.Done()
	a := vclock.NewActor(fmt.Sprintf("nexus-dispatch-%d-%s", p.rank, ch.Name()))
	for {
		from, id := -1, uint32(0)
		var body []byte
		err := ch.Recv(a, func(conn *core.Connection) error {
			from = conn.Remote()
			var hdr [8]byte
			if err := conn.Unpack(hdr[:], core.SendSafer, core.ReceiveExpress); err != nil {
				return err
			}
			id = binary.LittleEndian.Uint32(hdr[0:])
			body = make([]byte, binary.LittleEndian.Uint32(hdr[4:]))
			if len(body) == 0 {
				return nil
			}
			return conn.Unpack(body, core.SendCheaper, core.ReceiveCheaper)
		})
		if from < 0 {
			return // channel closed
		}
		if err != nil {
			panic(fmt.Sprintf("nexus dispatch %d: %v", p.rank, err))
		}
		a.Advance(rsrOverhead)
		p.mu.Lock()
		h := p.table[id]
		p.mu.Unlock()
		if h == nil {
			panic(fmt.Sprintf("nexus dispatch %d: no handler %d", p.rank, id))
		}
		h(a, from, NewBufferFrom(body))
	}
}
