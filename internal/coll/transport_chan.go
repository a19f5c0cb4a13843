package coll

import (
	"errors"
	"sync"

	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// chanTransport drives collectives over a plain madeleine channel through
// the async Submit*/CQ engine: every send and receive is a non-blocking
// conversation, one shared completion queue, one pump goroutine turning
// completions into executor events. A rank's sends and receives — and all
// its sends of one round — overlap in the engine instead of serializing
// on blocking calls.
//
// Receives are demand-driven: the executor announces how many messages a
// collective expects (need) and the transport posts exactly that many
// receive conversations. Because announcements bind conversations in FIFO
// order per connection, per-origin message order is preserved end to end.
type chanTransport struct {
	ch    *core.Channel
	cq    *core.CQ
	inbox *simnet.Queue[event]
	claim func(wireHdr) ([]byte, bool)

	mu      sync.Mutex
	sends   map[*core.AsyncMsg]*chanSend
	recvs   map[*core.AsyncMsg]*chanRecv
	closing bool

	pumping sync.WaitGroup // the pump goroutine
}

type chanSend struct {
	hdr    [wireHdrSize]byte // the envelope block; it must outlive SubmitPack
	token  int
	failed bool
	err    error
}

type chanRecv struct {
	hdr     [wireHdrSize]byte
	parsed  wireHdr
	payload []byte
	claimed bool
	failed  bool
}

func newChanTransport(ch *core.Channel, claim func(wireHdr) ([]byte, bool)) *chanTransport {
	t := &chanTransport{
		ch:    ch,
		cq:    core.NewCQ(),
		inbox: simnet.NewQueue[event](),
		claim: claim,
		sends: make(map[*core.AsyncMsg]*chanSend),
		recvs: make(map[*core.AsyncMsg]*chanRecv),
	}
	t.pumping.Add(1)
	go t.pump()
	return t
}

func (t *chanTransport) events() *simnet.Queue[event] { return t.inbox }

// isend opens a send conversation floored at the issue time, submits the
// envelope, payload and end fire-and-forget (the conversation's CQ
// carries every outcome; see core.Request) and returns immediately. The
// payload must stay valid until the send event arrives.
func (t *chanTransport) isend(token, node int, h wireHdr, payload []byte, at vclock.Time) {
	am, err := t.ch.SubmitPackingFrom(node, t.cq, at)
	if err != nil {
		t.inbox.Push(event{send: true, token: token, err: err})
		return
	}
	st := &chanSend{token: token}
	t.mu.Lock()
	t.sends[am] = st
	t.mu.Unlock()
	_ = am.SubmitPack(h.encodeInto(&st.hdr), core.SendSafer, core.ReceiveExpress)
	if len(payload) > 0 {
		_ = am.SubmitPack(payload, core.SendCheaper, core.ReceiveCheaper)
	}
	_ = am.SubmitEnd()
}

// need posts n receive conversations; each consumes exactly one incoming
// message. The envelope unpack is submitted up front; the payload unpack
// follows from the pump once the envelope names its size and sink.
func (t *chanTransport) need(n int) {
	for i := 0; i < n; i++ {
		am := t.ch.SubmitUnpacking(t.cq)
		st := &chanRecv{}
		t.mu.Lock()
		t.recvs[am] = st
		t.mu.Unlock()
		_ = am.SubmitUnpack(st.hdr[:], core.SendSafer, core.ReceiveExpress)
	}
}

// pump drains the shared CQ, advancing each conversation's little state
// machine: envelope completion -> claim a sink and submit the payload
// unpack + end; end completion -> deliver the executor event. It is the
// only goroutine that touches conversation state after submission, so
// the Submit* single-submitter contract holds per conversation.
func (t *chanTransport) pump() {
	defer t.pumping.Done()
	for {
		comp, ok := t.cq.Wait()
		if !ok {
			break
		}
		am := comp.Req.Msg()
		t.mu.Lock()
		if st := t.sends[am]; st != nil {
			t.stepSend(am, st, comp)
		} else if st := t.recvs[am]; st != nil {
			t.stepRecv(am, st, comp)
		}
		done := t.closing && len(t.sends) == 0 && len(t.recvs) == 0
		t.mu.Unlock()
		if done {
			t.cq.Close()
		}
	}
	t.inbox.Close()
}

// stepSend runs under t.mu.
func (t *chanTransport) stepSend(am *core.AsyncMsg, st *chanSend, comp core.Completion) {
	if comp.Err != nil && !st.failed {
		st.failed, st.err = true, comp.Err
	}
	if comp.Kind == core.OpEnd { // the conversation's final completion
		delete(t.sends, am)
		t.inbox.Push(event{send: true, token: st.token, stamp: comp.Time, err: st.err})
	}
}

// stepRecv runs under t.mu.
func (t *chanTransport) stepRecv(am *core.AsyncMsg, st *chanRecv, comp core.Completion) {
	if comp.Err != nil {
		if !st.failed {
			st.failed = true
			delete(t.recvs, am)
			if !(t.closing && errors.Is(comp.Err, core.ErrClosed)) {
				t.inbox.Push(event{err: comp.Err, stamp: comp.Time})
			}
		}
		return
	}
	switch {
	case comp.Seq == 1: // envelope arrived
		st.parsed = decodeWireHdr(st.hdr[:])
		if st.parsed.length > 0 {
			st.payload, st.claimed = t.claim(st.parsed)
			_ = am.SubmitUnpack(st.payload, core.SendCheaper, core.ReceiveCheaper)
		}
		_ = am.SubmitEnd()
	case comp.Kind == core.OpEnd:
		delete(t.recvs, am)
		ev := event{hdr: st.parsed, claimed: st.claimed, stamp: comp.Time}
		if !st.claimed {
			ev.data = st.payload
		}
		t.inbox.Push(ev)
	}
}

// close tears the transport down: the channel handle closes (failing any
// posted-but-unbound receive conversations), the pump drains to the last
// conversation and shuts the CQ and inbox.
func (t *chanTransport) close() {
	t.mu.Lock()
	t.closing = true
	empty := len(t.sends) == 0 && len(t.recvs) == 0
	t.mu.Unlock()
	t.ch.Close()
	if empty {
		t.cq.Close()
	}
	t.pumping.Wait()
}
