package coll

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// transport ships a communicator's wire messages over its channel, a plain
// madeleine channel or a virtual channel's (fwd.VC.Channel), in scoped core
// messages. A connection carries one message at a time per direction, so
// overlap comes from worker threads: one send worker per destination
// serializes that pair's messages while distinct destinations proceed
// concurrently, and one receive worker per peer loops Channel.Recv, so
// messages from distinct origins are read concurrently.
//
// Both blocks of a message travel receive_EXPRESS: a receive worker must
// read the envelope to know where the payload goes, then hand the event
// over inside the scope, and Table 1 promises a block's bytes at its
// Unpack only for EXPRESS. The Generic TM sees no modes, so over a
// virtual channel the envelope still shares a packet with its payload.
type transport struct {
	ch      *core.Channel
	release func() // closes the channel handle the communicator owns
	inbox   *simnet.Queue[event]
	claim   func(wireHdr) ([]byte, bool)

	mu      sync.Mutex
	sendQs  map[int]*simnet.Queue[sendJob] // destination node -> jobs
	sendWG  sync.WaitGroup
	closing atomic.Bool // set under mu

	recvWG sync.WaitGroup
}

type sendJob struct {
	token   int
	h       wireHdr
	payload []byte
	at      vclock.Time
}

// newTransport starts a receive worker per peer of ch. release closes the
// handle the communicator owns: ch itself, or the virtual channel whose
// Close also joins its gateway daemons.
func newTransport(ch *core.Channel, release func(), claim func(wireHdr) ([]byte, bool)) *transport {
	t := &transport{
		ch:      ch,
		release: release,
		inbox:   simnet.NewQueue[event](),
		claim:   claim,
		sendQs:  make(map[int]*simnet.Queue[sendJob]),
	}
	for _, peer := range ch.Members() {
		if peer != ch.Rank() {
			t.recvWG.Add(1)
			go t.recvWorker()
		}
	}
	return t
}

// isend queues the message on its destination's worker and returns; the
// payload must stay valid until the send event arrives. Per-destination
// issue order is the queue order, so the receiver sees this rank's
// messages to it in schedule order (its matching order when tags repeat
// across collectives).
func (t *transport) isend(token, node int, h wireHdr, payload []byte, at vclock.Time) {
	t.mu.Lock()
	if t.closing.Load() {
		t.mu.Unlock()
		t.inbox.PushIfOpen(event{send: true, token: token, err: fmt.Errorf("coll: transport closed")})
		return
	}
	q := t.sendQs[node]
	if q == nil {
		q = simnet.NewQueue[sendJob]()
		t.sendQs[node] = q
		t.sendWG.Add(1)
		go t.sendWorker(node, q)
	}
	t.mu.Unlock()
	q.Push(sendJob{token: token, h: h, payload: payload, at: at})
}

// sendWorker ships one destination's messages back to back on a reused
// actor, synced forward to each job's issue time (the causal floor: a
// forwarded block cannot leave before the step that produced it).
func (t *transport) sendWorker(node int, q *simnet.Queue[sendJob]) {
	defer t.sendWG.Done()
	a := vclock.NewActor(fmt.Sprintf("coll-send/%d>%d", t.ch.Rank(), node))
	var (
		job sendJob
		hdr [wireHdrSize]byte // staged or sent before Pack returns
	)
	send := func(conn *core.Connection) error {
		if err := conn.Pack(job.h.encodeInto(&hdr), core.SendCheaper, core.ReceiveExpress); err != nil || len(job.payload) == 0 {
			return err
		}
		return conn.Pack(job.payload, core.SendCheaper, core.ReceiveExpress)
	}
	for {
		var ok bool
		if job, ok = q.Pop(); !ok {
			return
		}
		a.Sync(job.at)
		err := t.ch.Send(a, node, send)
		t.inbox.Push(event{send: true, token: job.token, stamp: a.Now(), err: err})
	}
}

// recvWorker consumes messages, whatever their origin, on a reused actor.
// The actor is set back to zero once the scope holds the receive lease, so
// the event carries its message's arrival time alone, as the TMs sync the
// actor to each block's, and not the lease's last release. It pushes the
// event inside the scope: a connection's messages pass its receive lease
// one at a time, so each origin's events keep their order.
func (t *transport) recvWorker() {
	defer t.recvWG.Done()
	a := vclock.NewActor(fmt.Sprintf("coll-recv/%d", t.ch.Rank()))
	var hb [wireHdrSize]byte
	recv := func(conn *core.Connection) error {
		a.SetNow(0)
		if err := conn.Unpack(hb[:], core.SendCheaper, core.ReceiveExpress); err != nil {
			return err
		}
		ev := event{hdr: decodeWireHdr(hb[:])}
		if n := ev.hdr.length; n > 0 {
			dst, claimed := t.claim(ev.hdr)
			if ev.claimed = claimed; !claimed {
				ev.data = dst
			}
			if err := conn.Unpack(dst, core.SendCheaper, core.ReceiveExpress); err != nil {
				return err
			}
		}
		ev.stamp = a.Now()
		t.inbox.Push(ev)
		return nil
	}
	for {
		switch err := t.ch.Recv(a, recv); {
		case err == nil:
		case errors.Is(err, core.ErrClosed):
			if !t.closing.Load() {
				t.inbox.Push(event{err: err})
			}
			return
		default:
			t.inbox.Push(event{err: err})
		}
	}
}

// close drains the send side (queued messages still ship), closes the
// channel handle (ending the receive workers), joins every worker and
// shuts the event queue.
func (t *transport) close() {
	t.mu.Lock()
	t.closing.Store(true)
	for _, q := range t.sendQs {
		q.Close()
	}
	t.mu.Unlock()
	t.sendWG.Wait()
	t.release()
	t.recvWG.Wait()
	t.inbox.Close()
}
