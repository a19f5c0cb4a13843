package coll

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"madeleine2/internal/metrics"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// scriptCall is one collective of the scripted sequence: the call, the
// receives its schedule gives rank 0, and where its plain receives land.
type scriptCall struct {
	name   string
	run    func() error
	recvs  [][]Xfer // per round
	sends  int
	reduce bool   // the receives are folded into out, a float64 vector
	out    []byte // plain receives land at x.Off
	vec    []float64
}

// scriptTransport stands in for every peer of rank 0, which run one call
// ahead of it. It is the waiter on the one send queue the Comm's transport
// hands every peer's messages to, so it runs on rank 0's goroutine at each
// send: a call's first send, issued once the call's expectations are
// registered, sees the rest of that call's messages land, and its last
// send the first half of the next call's, or the whole of each next call
// that sends nothing (nothing inside such a call would land them), all
// through the Comm's claim hook as a real transport lands them. So the
// executor meets claimed payloads, reduction arrivals, folds that arrive
// ahead of their round and banked messages of a later call, the same way
// on every pass of the sequence, and a spare is handed out while others
// wait in each of those places. A send completes as it is issued.
type scriptTransport struct {
	c      *Comm
	inbox  *simnet.Queue[event]
	sends  *simnet.Queue[sendJob]
	slot   simnet.Slot
	calls  []scriptCall
	landed map[uint32]int // per call: messages landed so far
	seq    uint32         // the call of the last send
	sent   int            // sends of that call so far
	banked int            // calls that ended with a later call's message banked
}

// newScriptTransport installs the script as c's transport.
func newScriptTransport(c *Comm) *scriptTransport {
	t := &scriptTransport{c: c, inbox: simnet.NewQueue[event](), sends: simnet.NewQueue[sendJob](), landed: map[uint32]int{}}
	c.t = &transport{inbox: t.inbox, release: func() {}, sendQs: map[int]*simnet.Queue[sendJob]{}}
	for r := 1; r < c.Size(); r++ {
		c.t.sendQs[c.nodes[r]] = t.sends
	}
	t.sends.PopAsync(&t.slot, t)
	return t
}

func (t *scriptTransport) Ready(job sendJob, ok bool) {
	if !ok {
		return
	}
	if job.h.seq != t.seq {
		t.seq, t.sent = job.h.seq, 0
		t.land(t.seq, len(t.recvsOf(t.seq)))
	}
	t.sent++
	if t.sent == t.call(t.seq).sends {
		next := t.seq + 1
		for ; t.call(next).sends == 0; next++ {
			t.land(next, len(t.recvsOf(next)))
		}
		t.land(next, len(t.recvsOf(next))/2)
	}
	t.inbox.Push(event{send: true, token: job.token})
	t.sends.PopAsync(&t.slot, t)
}

func (t *scriptTransport) call(seq uint32) *scriptCall { return &t.calls[int(seq-1)%len(t.calls)] }

// recvsOf lists the receives of the call with sequence number seq.
func (t *scriptTransport) recvsOf(seq uint32) []Xfer {
	var xs []Xfer
	for _, r := range t.call(seq).recvs {
		xs = append(xs, r...)
	}
	return xs
}

// land lands the messages of call seq that precede its upto-th.
func (t *scriptTransport) land(seq uint32, upto int) {
	from := t.landed[seq]
	if from >= upto {
		return
	}
	t.landed[seq] = upto
	xs := t.recvsOf(seq)[from:upto]
	sc := t.call(seq)
	for _, x := range xs {
		h := wireHdr{seq: seq, origin: int32(x.Peer), tag: uint32(x.Tag), length: uint32(x.Len)}
		buf, claimed := t.c.claim(h)
		if sc.reduce {
			for i := 0; i < len(buf); i += 8 {
				binary.LittleEndian.PutUint64(buf[i:], math.Float64bits(valueOf(seq, x)))
			}
		} else {
			copy(buf, payloadOf(seq, x))
		}
		ev := event{hdr: h, claimed: claimed}
		if !claimed {
			ev.data = buf
		}
		t.inbox.Push(ev)
	}
}

// payloadOf is the bytes a plain message carries: distinct per call,
// origin and tag, so a buffer handed out twice while its first payload
// waits shows as a wrong output.
func payloadOf(seq uint32, x Xfer) []byte {
	b := make([]byte, x.Len)
	for i := range b {
		b[i] = byte(int(seq)*31 + x.Peer*7 + x.Tag*3 + i)
	}
	return b
}

// valueOf is every element of the vector a reduction message carries:
// distinct per call and origin, like payloadOf.
func valueOf(seq uint32, x Xfer) float64 { return float64(seq)*16 + float64(x.Peer) }

// captureExec records the schedule of each call.
type captureExec struct{ last Schedule }

func (r *captureExec) Run(_ string, p Plan) error {
	r.last = Schedule{Rounds: append([]Round(nil), p.Sched.Rounds...)}
	return nil
}

func (r *captureExec) Reject(_ string, err error) error { return err }

// TestSpareReuseRunAhead: rank 0 of four, whose peers run one collective
// ahead, takes every payload that no sink claims (its reduction arrivals,
// folds that arrive ahead of their round, messages of the next call) in a
// spare buffer. Each buffer goes back once its payload is copied or
// folded, so after the first passes of a repeated sequence the
// communicator makes no spare at all, and every output stays exact: a
// spare handed out again while its payload was queued or banked would
// overwrite that payload.
func TestSpareReuseRunAhead(t *testing.T) {
	const n = 4
	c, err := newComm([]int{0, 1, 2, 3}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.name, c.actor, c.met = "script", vclock.NewActor("script"), collMetrics(metrics.NewRegistry())
	tr := newScriptTransport(c)
	defer c.Close()

	// Payloads of 65 to 128 bytes share one size class, so a spare given
	// back too early is the next one handed out.
	vec, red := make([]float64, 16), make([]float64, 16)
	bc, a2aIn, a2aOut := make([]byte, 100), make([]byte, n*120), make([]byte, n*120)
	gIn, gOut := make([]byte, 40), make([]byte, n*40)
	calls := []scriptCall{
		{name: "allreduce", run: func() error { return c.Allreduce(vec, red, Sum) }, reduce: true, vec: red},
		{name: "alltoall", run: func() error { return c.Alltoall(a2aIn, a2aOut) }, out: a2aOut},
		{name: "bcast", run: func() error { return c.Bcast(1, bc) }, out: bc},
		{name: "reduce", run: func() error { return c.Reduce(0, vec, red, Sum) }, reduce: true, vec: red},
		{name: "gather", run: func() error { return c.Gather(0, gIn, gOut) }, out: gOut},
	}
	rec := &captureExec{}
	shadow := NewOps(rec, c.topo, 0, Auto)
	shadowCalls := []func() error{
		func() error { return shadow.Allreduce(vec, red, Sum) },
		func() error { return shadow.Alltoall(a2aIn, a2aOut) },
		func() error { return shadow.Bcast(1, bc) },
		func() error { return shadow.Reduce(0, vec, red, Sum) },
		func() error { return shadow.Gather(0, gIn, gOut) },
	}
	deep := false
	for i := range calls {
		if err := shadowCalls[i](); err != nil {
			t.Fatal(err)
		}
		for _, r := range rec.last.Rounds {
			calls[i].recvs = append(calls[i].recvs, r.Recvs)
		}
		calls[i].sends = rec.last.NumSends()
		deep = deep || (calls[i].reduce && len(calls[i].recvs) > 1)
	}
	if !deep {
		t.Fatal("no reduction of the sequence has receives in two rounds: no fold can arrive ahead of its round")
	}
	tr.calls = calls

	const warm, passes = 2, 6
	made := 0
	for pass := 0; pass < passes; pass++ {
		if pass == warm {
			made = c.spare.made
		}
		for _, sc := range calls {
			seq := c.seq + 1
			for i := range vec {
				vec[i] = 0.5
			}
			if err := sc.run(); err != nil {
				t.Fatalf("pass %d %s: %v", pass, sc.name, err)
			}
			if len(c.future) > 0 {
				tr.banked++
			}
			checkScripted(t, pass, seq, sc)
		}
	}
	if got := c.spare.made - made; got != 0 {
		t.Errorf("%d spares made after %d warm-up passes, want 0", got, warm)
	}
	if c.spare.made == 0 || tr.banked == 0 || c.met.claimed.Load() == 0 {
		t.Errorf("%d spares made, %d calls banked a later call's message, %d payloads claimed: the script missed a path",
			c.spare.made, tr.banked, c.met.claimed.Load())
	}
}

// checkScripted holds the output of call seq to what its peers sent.
func checkScripted(t *testing.T, pass int, seq uint32, sc scriptCall) {
	t.Helper()
	if !sc.reduce {
		for _, r := range sc.recvs {
			for _, x := range r {
				if !bytes.Equal(sc.out[x.Off:x.Off+x.Len], payloadOf(seq, x)) {
					t.Fatalf("pass %d %s: the block from rank %d tag %d differs from what it sent", pass, sc.name, x.Peer, x.Tag)
				}
			}
		}
		return
	}
	want := 0.5
	for _, r := range sc.recvs {
		for _, x := range r {
			if x.Combine {
				want += valueOf(seq, x)
			} else {
				want = valueOf(seq, x)
			}
		}
	}
	for i, v := range sc.vec {
		if v != want {
			t.Fatalf("pass %d %s: element %d is %v, want %v", pass, sc.name, i, v, want)
		}
	}
}
