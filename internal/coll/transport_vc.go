package coll

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// vcTransport drives collectives over a forwarding virtual channel, in
// scoped core messages on its VC channel (fwd.VC.Channel). A VC
// connection carries one message at a time per direction, like any core
// connection, so overlap comes from worker threads rather than the async
// engine, whose conversations cost more allocations per message: one send
// worker per destination serializes that pair's messages while distinct
// destinations proceed concurrently, and one receive worker per peer loops
// Channel.Recv, so messages from distinct origins are read concurrently.
//
// Both blocks of a message travel receive_EXPRESS: a receive worker must
// read the envelope to know where the payload goes, then hand the event
// over inside the scope, and Table 1 promises a block's bytes at its
// Unpack only for EXPRESS. The Generic TM sees no modes, so the envelope
// still shares a packet with its payload.
type vcTransport struct {
	vc    *fwd.VC
	ch    *core.Channel
	inbox *simnet.Queue[event]
	claim func(wireHdr) ([]byte, bool)

	mu      sync.Mutex
	sendQs  map[int]*simnet.Queue[vcSendJob] // destination node -> jobs
	sendWG  sync.WaitGroup
	closing atomic.Bool // set under mu

	recvWG sync.WaitGroup
}

type vcSendJob struct {
	token   int
	h       wireHdr
	payload []byte
	at      vclock.Time
}

func newVCTransport(vc *fwd.VC, claim func(wireHdr) ([]byte, bool)) *vcTransport {
	t := &vcTransport{
		vc:     vc,
		ch:     vc.Channel(),
		inbox:  simnet.NewQueue[event](),
		claim:  claim,
		sendQs: make(map[int]*simnet.Queue[vcSendJob]),
	}
	for _, peer := range t.ch.Members() {
		if peer != t.ch.Rank() {
			t.recvWG.Add(1)
			go t.recvWorker()
		}
	}
	return t
}

func (t *vcTransport) events() *simnet.Queue[event] { return t.inbox }

// need is a no-op: the receive workers accept every incoming message.
func (t *vcTransport) need(int) {}

// isend queues the message on its destination's worker. Per-destination
// issue order is the queue order, so the receiver sees this rank's
// messages to it in schedule order.
func (t *vcTransport) isend(token, node int, h wireHdr, payload []byte, at vclock.Time) {
	t.mu.Lock()
	if t.closing.Load() {
		t.mu.Unlock()
		t.inbox.Push(event{send: true, token: token, err: fmt.Errorf("coll: transport closed")})
		return
	}
	q := t.sendQs[node]
	if q == nil {
		q = simnet.NewQueue[vcSendJob]()
		t.sendQs[node] = q
		t.sendWG.Add(1)
		go t.sendWorker(node, q)
	}
	t.mu.Unlock()
	q.Push(vcSendJob{token: token, h: h, payload: payload, at: at})
}

// sendWorker ships one destination's messages back to back on a reused
// actor, synced forward to each job's issue time (the causal floor: a
// forwarded block cannot leave before the step that produced it).
func (t *vcTransport) sendWorker(node int, q *simnet.Queue[vcSendJob]) {
	defer t.sendWG.Done()
	a := vclock.NewActor(fmt.Sprintf("coll-send/%d>%d", t.vc.Rank(), node))
	var (
		job vcSendJob
		hdr [wireHdrSize]byte // the Generic TM stages it before Pack returns
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
// the event carries its message's arrival time alone, as the Generic TM
// syncs the actor to each packet's, and not the lease's last release. It
// pushes the event inside the scope: a connection's messages pass its
// receive lease one at a time, so each origin's events keep their order.
func (t *vcTransport) recvWorker() {
	defer t.recvWG.Done()
	a := vclock.NewActor(fmt.Sprintf("coll-recv/%d", t.vc.Rank()))
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

// close drains the send side (queued messages still ship), closes the VC
// handle (ending the receive workers), joins every worker and shuts the
// event queue. The transport owns the VC handle it was built over.
func (t *vcTransport) close() {
	t.mu.Lock()
	t.closing.Store(true)
	for _, q := range t.sendQs {
		q.Close()
	}
	t.mu.Unlock()
	t.sendWG.Wait()
	t.vc.Close()
	t.recvWG.Wait()
	t.inbox.Close()
}
