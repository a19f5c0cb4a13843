package coll

import (
	"fmt"
	"sync"

	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// The VC ignores receive modes (it delivers streams) and degrades send
// modes to copies; Cheaper/Cheaper avoids the express path's early-flush
// packet split under reliable MTU-padded framing.
const (
	fwdSendMode = core.SendCheaper
	fwdRecvMode = core.ReceiveCheaper
)

// vcTransport drives collectives over a forwarding virtual channel. The
// VC carries at most one in-flight message per origin->destination pair
// (its per-origin chunk streams would tear otherwise), so overlap comes
// from worker threads instead of the async engine: one send worker per
// destination serializes that pair's messages while distinct destinations
// proceed concurrently, and one receive worker per origin drains that
// origin's stream while other origins arrive in parallel.
type vcTransport struct {
	vc    *fwd.VC
	inbox *simnet.Queue[event]
	claim func(wireHdr) []byte

	mu      sync.Mutex
	sendQs  map[int]*simnet.Queue[vcSendJob] // destination node -> jobs
	sendWG  sync.WaitGroup
	closing bool

	recvQs map[int]*simnet.Queue[*fwd.VConn] // origin node -> messages
	recvWG sync.WaitGroup
	dispWG sync.WaitGroup
}

type vcSendJob struct {
	token   int
	h       wireHdr
	payload []byte
	at      vclock.Time
}

func newVCTransport(vc *fwd.VC, claim func(wireHdr) []byte) *vcTransport {
	t := &vcTransport{
		vc:     vc,
		inbox:  simnet.NewQueue[event](),
		claim:  claim,
		sendQs: make(map[int]*simnet.Queue[vcSendJob]),
		recvQs: make(map[int]*simnet.Queue[*fwd.VConn]),
	}
	t.dispWG.Add(1)
	go t.dispatch()
	return t
}

func (t *vcTransport) events() *simnet.Queue[event] { return t.inbox }

// need is a no-op: the VC's receiver daemons already run unconditionally,
// and the dispatcher accepts every incoming message as it starts.
func (t *vcTransport) need(int) {}

// isend queues the message on its destination's worker. Per-destination
// issue order is the queue order, so the receiver sees this rank's
// messages to it in schedule order.
func (t *vcTransport) isend(token, node int, h wireHdr, payload []byte, at vclock.Time) {
	t.mu.Lock()
	if t.closing {
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
	var hdr [wireHdrSize]byte // VConn.Pack copies before it returns
	for {
		job, ok := q.Pop()
		if !ok {
			return
		}
		a.Sync(job.at)
		err := t.sendOne(a, node, job, &hdr)
		t.inbox.Push(event{send: true, token: job.token, stamp: a.Now(), err: err})
	}
}

func (t *vcTransport) sendOne(a *vclock.Actor, node int, job vcSendJob, hdr *[wireHdrSize]byte) error {
	conn, err := t.vc.BeginPacking(a, node)
	if err != nil {
		return err
	}
	// Both blocks travel Cheaper/Cheaper: an express flush would split the
	// 16-byte envelope into its own MTU-padded packet under reliable
	// framing, and a stream receiver gains nothing from early delivery.
	if err := conn.Pack(job.h.encodeInto(hdr), fwdSendMode, fwdRecvMode); err != nil {
		return err // abort contract: a failed Pack already closed the message
	}
	if len(job.payload) > 0 {
		if err := conn.Pack(job.payload, fwdSendMode, fwdRecvMode); err != nil {
			return err
		}
	}
	return conn.EndPacking()
}

// dispatch accepts incoming messages and fans them out to per-origin
// workers; a worker consumes its origin's messages strictly in order
// (they share one chunk stream) while other origins drain concurrently.
func (t *vcTransport) dispatch() {
	defer t.dispWG.Done()
	name := fmt.Sprintf("coll-recv/%d", t.vc.Rank())
	for {
		// A fresh actor per message: the VConn keeps it.
		conn, err := t.vc.BeginUnpacking(vclock.NewActor(name))
		if err != nil {
			t.mu.Lock()
			closing := t.closing
			for _, q := range t.recvQs {
				q.Close()
			}
			t.mu.Unlock()
			if !closing {
				t.inbox.Push(event{err: err})
			}
			return
		}
		t.mu.Lock()
		q := t.recvQs[conn.Remote()]
		if q == nil {
			q = simnet.NewQueue[*fwd.VConn]()
			t.recvQs[conn.Remote()] = q
			t.recvWG.Add(1)
			go t.recvWorker(q)
		}
		t.mu.Unlock()
		q.Push(conn)
	}
}

func (t *vcTransport) recvWorker(q *simnet.Queue[*fwd.VConn]) {
	defer t.recvWG.Done()
	for {
		conn, ok := q.Pop()
		if !ok {
			return
		}
		t.recvOne(conn)
	}
}

// recvOne consumes one message. The VConn syncs its per-message actor to
// each chunk's arrival, so the event carries that actor's time once the
// message is unpacked, and the rank's clock reaches the arrival.
func (t *vcTransport) recvOne(conn *fwd.VConn) {
	var hb [wireHdrSize]byte
	if err := conn.Unpack(hb[:], fwdSendMode, fwdRecvMode); err != nil {
		_ = conn.EndUnpacking()
		t.inbox.Push(event{err: err})
		return
	}
	h := decodeWireHdr(hb[:])
	ev := event{hdr: h}
	var dst []byte
	if h.length > 0 {
		if buf := t.claim(h); buf != nil {
			dst, ev.claimed = buf, true
		} else {
			dst = make([]byte, h.length)
			ev.data = dst
		}
		if err := conn.Unpack(dst, fwdSendMode, fwdRecvMode); err != nil {
			_ = conn.EndUnpacking()
			t.inbox.Push(event{err: err})
			return
		}
	}
	if err := conn.EndUnpacking(); err != nil {
		t.inbox.Push(event{err: err})
		return
	}
	ev.stamp = conn.Actor().Now()
	t.inbox.Push(ev)
}

// close drains the send side (queued messages still ship), closes the VC
// handle (unblocking the dispatcher), joins every worker and shuts the
// event queue. The transport owns the VC handle it was built over.
func (t *vcTransport) close() {
	t.mu.Lock()
	t.closing = true
	for _, q := range t.sendQs {
		q.Close()
	}
	t.mu.Unlock()
	t.sendWG.Wait()
	t.vc.Close()
	t.dispWG.Wait()
	t.recvWG.Wait()
	t.inbox.Close()
}
