package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"madeleine2/internal/vclock"
)

// drainEnds collects completions from cq until n OpEnd completions have
// arrived, returning every completion in delivery order.
func drainEnds(t *testing.T, cq *CQ, n int) []Completion {
	t.Helper()
	var out []Completion
	ends := 0
	for ends < n {
		c, ok := cq.Wait()
		if !ok {
			t.Fatalf("CQ closed after %d completions, want %d ends", len(out), n)
		}
		out = append(out, c)
		if c.Kind == OpEnd {
			ends++
		}
	}
	return out
}

// TestAsyncBasic drives one message through the submission path end to
// end: submit on rank 0, submit-receive on rank 1, both via CQs.
func TestAsyncBasic(t *testing.T) {
	chans, sess := newTestChannel(t, "tcp")
	defer sess.Shutdown()

	msg := pattern(4096, 3)
	hdr := pattern(16, 9)

	scq, rcq := NewCQ(), NewCQ()
	send, err := chans[0].SubmitPacking(1, scq)
	if err != nil {
		t.Fatal(err)
	}
	r1 := send.SubmitPack(hdr, SendCheaper, ReceiveExpress)
	r2 := send.SubmitPack(msg, SendCheaper, ReceiveCheaper)
	r3 := send.SubmitEnd()

	recv := chans[1].SubmitUnpacking(rcq)
	gotHdr := make([]byte, len(hdr))
	gotMsg := make([]byte, len(msg))
	u1 := recv.SubmitUnpack(gotHdr, SendCheaper, ReceiveExpress)
	u2 := recv.SubmitUnpack(gotMsg, SendCheaper, ReceiveCheaper)
	u3 := recv.SubmitEnd()

	sc := drainEnds(t, scq, 1)
	rc := drainEnds(t, rcq, 1)

	for i, c := range sc {
		if c.Err != nil {
			t.Fatalf("send completion %d: %v", i, c.Err)
		}
		if c.Seq != uint64(i+1) {
			t.Fatalf("send completion %d out of order: seq %d", i, c.Seq)
		}
	}
	for i, c := range rc {
		if c.Err != nil {
			t.Fatalf("recv completion %d: %v", i, c.Err)
		}
		if c.Seq != uint64(i+1) {
			t.Fatalf("recv completion %d out of order: seq %d", i, c.Seq)
		}
	}
	if len(sc) != 3 || len(rc) != 3 {
		t.Fatalf("got %d send / %d recv completions, want 3/3", len(sc), len(rc))
	}
	for _, r := range []*Request{r1, r2, r3, u1, u2, u3} {
		if !r.Done() || r.Err() != nil {
			t.Fatalf("request %v/%d not cleanly done: done=%v err=%v", r.Kind(), r.Seq(), r.Done(), r.Err())
		}
	}
	if !bytes.Equal(gotHdr, hdr) || !bytes.Equal(gotMsg, msg) {
		t.Fatal("async delivery corrupted payload")
	}
	if got := recv.Remote(); got != 0 {
		t.Fatalf("recv conversation bound to remote %d, want 0", got)
	}

	st := chans[0].Stats()
	if st.AsyncSubmitted != 3 || st.AsyncCompleted != 3 || st.AsyncErrors != 0 {
		t.Fatalf("sender async stats %d/%d/%d, want 3/3/0",
			st.AsyncSubmitted, st.AsyncCompleted, st.AsyncErrors)
	}
	if st.MessagesOut != 1 {
		t.Fatalf("MessagesOut = %d, want 1", st.MessagesOut)
	}
}

// TestAsyncCallbackDelivery switches a CQ to callback mode: completions
// run synchronously on the completing worker and never reach Poll/Wait.
func TestAsyncCallbackDelivery(t *testing.T) {
	chans, sess := newTestChannel(t, "tcp")
	defer sess.Shutdown()

	done := make(chan Completion, 8)
	cq := NewCQ()
	cq.OnCompletion(func(c Completion) { done <- c })

	send, err := chans[0].SubmitPacking(1, cq)
	if err != nil {
		t.Fatal(err)
	}
	// Callback delivery: the requests need no polling; the callback sees
	// every completion.
	_ = send.SubmitPack(pattern(128, 1), SendCheaper, ReceiveCheaper)
	_ = send.SubmitEnd()

	r := vclock.NewActor("r")
	got := recvMsg(t, chans[1], r, []block{{data: pattern(128, 1), sm: SendCheaper, rm: ReceiveCheaper}})
	if !bytes.Equal(got[0], pattern(128, 1)) {
		t.Fatal("payload corrupted")
	}

	for i := 0; i < 2; i++ {
		c := <-done
		if c.Err != nil {
			t.Fatalf("completion %d: %v", i, c.Err)
		}
	}
	if _, ok := cq.Poll(); ok {
		t.Fatal("callback-mode CQ buffered a completion")
	}
}

// TestAsyncAbortSeqOrder pins the abort contract on the submission path:
// after the receiving channel closes, the first failing operation reports
// the causal error, everything behind it completes with ErrBadState, all
// in submission order — and the send lease is released, not leaked.
func TestAsyncAbortSeqOrder(t *testing.T) {
	// bip's eager BMM reaches the wire before EndPacking, so a mid-message
	// operation observes the closed peer.
	chans, sess := newTestChannel(t, "bip")
	defer sess.Shutdown()
	chans[1].Close()

	cq := NewCQ()
	send, err := chans[0].SubmitPacking(1, cq)
	if err != nil {
		t.Fatal(err)
	}
	send.SubmitPack(pattern(64, 1), SendCheaper, ReceiveCheaper)
	send.SubmitPack(pattern(64, 2), SendCheaper, ReceiveCheaper)
	send.SubmitEnd()

	var comps []Completion
	for len(comps) < 3 {
		c, ok := cq.Wait()
		if !ok {
			t.Fatal("CQ closed early")
		}
		comps = append(comps, c)
	}
	// The first failing operation (which one depends on how eagerly the
	// BMM reaches the wire) carries the causal error; everything behind it
	// completes with ErrBadState, all in submission order.
	failed := -1
	for i, c := range comps {
		if c.Seq != uint64(i+1) {
			t.Fatalf("completion %d delivered out of order (seq %d)", i, c.Seq)
		}
		if failed == -1 {
			if c.Err != nil {
				failed = i
				if !errors.Is(c.Err, ErrClosed) {
					t.Fatalf("first failing completion err = %v, want ErrClosed", c.Err)
				}
			}
		} else if !errors.Is(c.Err, ErrBadState) {
			t.Fatalf("completion %d err = %v, want ErrBadState", i, c.Err)
		}
	}
	if failed == -1 {
		t.Fatal("no operation failed despite the closed peer")
	}
	if !errors.Is(send.Err(), ErrClosed) {
		t.Fatalf("conversation Err = %v, want ErrClosed", send.Err())
	}

	// A later submission to the dead conversation fails immediately.
	late := send.SubmitPack(pattern(8, 3), SendCheaper, ReceiveCheaper)
	if c, ok := cq.Wait(); !ok || !errors.Is(c.Err, ErrBadState) || c.Req != late {
		t.Fatalf("late submission: got %+v, want ErrBadState for the late request", c)
	}

	// The abort released the lease: the sync path can begin a new message
	// on the same connection without blocking.
	a := vclock.NewActor("retry")
	cn, err := chans[0].BeginPacking(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = cn.Pack(pattern(8, 4), SendCheaper, ReceiveCheaper)
	if err == nil {
		err = cn.EndPacking() // eager BMMs may defer the only block to End
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("message toward closed peer: %v, want ErrClosed", err)
	}
}

// TestAsyncRecvClosed pins the receive-side failure shape: a conversation
// whose channel closes before any message arrives fails its first pending
// operation with ErrClosed and the rest with ErrBadState.
func TestAsyncRecvClosed(t *testing.T) {
	chans, sess := newTestChannel(t, "tcp")
	defer sess.Shutdown()

	cq := NewCQ()
	recv := chans[1].SubmitUnpacking(cq)
	buf := make([]byte, 32)
	recv.SubmitUnpack(buf, SendCheaper, ReceiveCheaper)
	recv.SubmitEnd()
	chans[1].Close()

	c1, ok := cq.Wait()
	if !ok {
		t.Fatal("CQ closed early")
	}
	c2, ok := cq.Wait()
	if !ok {
		t.Fatal("CQ closed early")
	}
	if !errors.Is(c1.Err, ErrClosed) || c1.Seq != 1 {
		t.Fatalf("first completion %v seq %d, want ErrClosed seq 1", c1.Err, c1.Seq)
	}
	if !errors.Is(c2.Err, ErrBadState) || c2.Seq != 2 {
		t.Fatalf("second completion %v seq %d, want ErrBadState seq 2", c2.Err, c2.Seq)
	}
	if recv.Remote() != -1 {
		t.Fatalf("unbound conversation Remote() = %d, want -1", recv.Remote())
	}
}

// TestAsyncLeaseFIFO checks conversation ordering under lease contention:
// two conversations toward the same peer execute in submission order, and
// a request discarded before execution never surfaces on the CQ.
func TestAsyncLeaseFIFO(t *testing.T) {
	chans, sess := newTestChannel(t, "tcp")
	defer sess.Shutdown()

	// Hold the send lease with a sync message so both conversations park.
	a := vclock.NewActor("holder")
	holder, err := chans[0].BeginPacking(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Pack(pattern(16, 7), SendCheaper, ReceiveCheaper); err != nil {
		t.Fatal(err)
	}

	cq := NewCQ()
	first := pattern(256, 1)
	second := pattern(256, 2)
	c1, err := chans[0].SubmitPacking(1, cq)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := chans[0].SubmitPacking(1, cq)
	if err != nil {
		t.Fatal(err)
	}
	discarded := c1.SubmitPack(first, SendCheaper, ReceiveCheaper)
	discarded.Discard()
	c1.SubmitEnd()
	c2.SubmitPack(second, SendCheaper, ReceiveCheaper)
	c2.SubmitEnd()

	if err := holder.EndPacking(); err != nil {
		t.Fatal(err)
	}

	r := vclock.NewActor("r")
	got0 := recvMsg(t, chans[1], r, []block{{data: pattern(16, 7), sm: SendCheaper, rm: ReceiveCheaper}})
	got1 := recvMsg(t, chans[1], r, []block{{data: first, sm: SendCheaper, rm: ReceiveCheaper}})
	got2 := recvMsg(t, chans[1], r, []block{{data: second, sm: SendCheaper, rm: ReceiveCheaper}})
	if !bytes.Equal(got0[0], pattern(16, 7)) {
		t.Fatal("sync holder payload corrupted")
	}
	if !bytes.Equal(got1[0], first) || !bytes.Equal(got2[0], second) {
		t.Fatal("parked conversations executed out of FIFO order")
	}

	comps := drainEnds(t, cq, 2)
	for _, c := range comps {
		if c.Err != nil {
			t.Fatalf("completion error: %v", c.Err)
		}
		if c.Req == discarded {
			t.Fatal("discarded request surfaced on the CQ")
		}
	}
	if len(comps) != 3 { // c1's pack was discarded: 2 ends + c2's pack
		t.Fatalf("got %d completions, want 3", len(comps))
	}
	if discarded.Done() {
		t.Fatal("discarded request reports Done")
	}
}

// TestAsyncSyncEquivalence is the byte-identity property: random messages
// sent through the submission path and received synchronously (and vice
// versa) arrive bit-identical over every protocol module, like the pure
// sync property test.
func TestAsyncSyncEquivalence(t *testing.T) {
	for _, drv := range Drivers() {
		drv := drv
		t.Run(drv, func(t *testing.T) {
			chans, sess := newTestChannel(t, drv)
			defer sess.Shutdown()
			r := vclock.NewActor("sync-r")
			s := vclock.NewActor("sync-s")
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				nblocks := 1 + rng.Intn(6)
				blocks := make([]block, nblocks)
				for i := range blocks {
					var n int
					switch rng.Intn(4) {
					case 0:
						n = 1 + rng.Intn(250)
					case 1:
						n = 256 + rng.Intn(4<<10)
					case 2:
						n = (8 << 10) + rng.Intn(32<<10)
					default:
						n = 1 + rng.Intn(64<<10)
					}
					blocks[i] = block{
						data: pattern(n, byte(seed)+byte(i)),
						sm:   []SendMode{SendCheaper, SendSafer, SendLater}[rng.Intn(3)],
						rm:   []RecvMode{ReceiveCheaper, ReceiveExpress}[rng.Intn(2)],
					}
				}

				// Async send, sync receive.
				done := make(chan [][]byte, 1)
				go func() {
					done <- recvMsg(t, chans[1], r, blocks)
				}()
				cq := NewCQ()
				send, err := chans[0].SubmitPacking(1, cq)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range blocks {
					send.SubmitPack(b.data, b.sm, b.rm)
				}
				send.SubmitEnd()
				for _, c := range drainEnds(t, cq, 1) {
					if c.Err != nil {
						t.Fatalf("async send completion: %v", c.Err)
					}
				}
				got := <-done
				for i := range blocks {
					if !bytes.Equal(got[i], blocks[i].data) {
						return false
					}
				}

				// Sync send, async receive.
				rcq := NewCQ()
				recv := chans[1].SubmitUnpacking(rcq)
				dsts := make([][]byte, nblocks)
				for i, b := range blocks {
					dsts[i] = make([]byte, len(b.data))
					recv.SubmitUnpack(dsts[i], b.sm, b.rm)
				}
				recv.SubmitEnd()
				sendMsg(t, chans[0], s, 1, blocks)
				for _, c := range drainEnds(t, rcq, 1) {
					if c.Err != nil {
						t.Fatalf("async recv completion: %v", c.Err)
					}
				}
				for i := range blocks {
					if !bytes.Equal(dsts[i], blocks[i].data) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(1))}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAsyncManyConversations runs far more logical conversations than
// engine workers: a small fixed pool services them all (the scale shape
// the bench's -fig async measures at 10k+).
func TestAsyncManyConversations(t *testing.T) {
	const conversations = 400
	const workers = 8

	sess := NewSessionWith(testWorld(2), SessionSpec{Workers: workers})
	defer sess.Shutdown()
	chans, err := sess.NewChannel(ChannelSpec{Name: "scale", Driver: "tcp"})
	if err != nil {
		t.Fatal(err)
	}

	scq, rcq := NewCQ(), NewCQ()
	payload := pattern(64, 11)
	dsts := make([][]byte, conversations)
	for i := 0; i < conversations; i++ {
		send, err := chans[0].SubmitPacking(1, scq)
		if err != nil {
			t.Fatal(err)
		}
		send.SubmitPack(payload, SendCheaper, ReceiveCheaper)
		send.SubmitEnd()

		recv := chans[1].SubmitUnpacking(rcq)
		dsts[i] = make([]byte, len(payload))
		recv.SubmitUnpack(dsts[i], SendCheaper, ReceiveCheaper)
		recv.SubmitEnd()
	}

	for _, c := range drainEnds(t, scq, conversations) {
		if c.Err != nil {
			t.Fatalf("send completion: %v", c.Err)
		}
	}
	for _, c := range drainEnds(t, rcq, conversations) {
		if c.Err != nil {
			t.Fatalf("recv completion: %v", c.Err)
		}
	}
	for i, dst := range dsts {
		if !bytes.Equal(dst, payload) {
			t.Fatalf("conversation %d payload corrupted", i)
		}
	}
	st := chans[0].Stats()
	if st.MessagesOut != conversations {
		t.Fatalf("MessagesOut = %d, want %d", st.MessagesOut, conversations)
	}
}

// TestAsyncOverflowOps runs a conversation longer than its inline request
// slots, so its later requests are allocated one by one: completions still
// arrive in Seq order, each for the handle its Submit returned, through
// Poll/Wait and through the callback, and so does an abort's ErrBadState
// tail.
func TestAsyncOverflowOps(t *testing.T) {
	const ops = inlineOps + 5
	for _, callback := range []bool{false, true} {
		for _, abort := range []bool{false, true} {
			t.Run(fmt.Sprintf("callback=%v/abort=%v", callback, abort), func(t *testing.T) {
				// bip's eager BMM reaches the wire before EndPacking, so a
				// closed peer fails the conversation mid-message.
				chans, sess := newTestChannel(t, "bip")
				defer sess.Shutdown()
				if abort {
					chans[1].Close()
				}
				cq := NewCQ()
				next := cq.Wait
				if callback {
					got := make(chan Completion, ops)
					cq.OnCompletion(func(c Completion) { got <- c })
					next = func() (Completion, bool) { return <-got, true }
				}
				send, err := chans[0].SubmitPacking(1, cq)
				if err != nil {
					t.Fatal(err)
				}
				blocks := make([]block, ops-1)
				reqs := make([]*Request, 0, ops)
				for i := range blocks {
					blocks[i] = block{data: pattern(64, byte(i)), sm: SendCheaper, rm: ReceiveCheaper}
					reqs = append(reqs, send.SubmitPack(blocks[i].data, SendCheaper, ReceiveCheaper))
				}
				reqs = append(reqs, send.SubmitEnd())
				if !abort {
					for i, got := range recvMsg(t, chans[1], vclock.NewActor("r"), blocks) {
						if !bytes.Equal(got, blocks[i].data) {
							t.Fatalf("block %d corrupted", i)
						}
					}
				}
				failed := false
				for i, r := range reqs {
					c, ok := next()
					if !ok {
						t.Fatal("CQ closed early")
					}
					if c.Req != r || c.Seq != uint64(i+1) || r.Seq() != c.Seq {
						t.Fatalf("completion %d is seq %d of request %p, want seq %d of %p", i, c.Seq, c.Req, i+1, r)
					}
					switch {
					case !abort && c.Err != nil:
						t.Fatalf("completion %d: %v", i, c.Err)
					case failed && !errors.Is(c.Err, ErrBadState):
						t.Fatalf("completion %d behind the failure: %v, want ErrBadState", i, c.Err)
					case abort && !failed && c.Err != nil:
						failed = true
						if !errors.Is(c.Err, ErrClosed) {
							t.Fatalf("first failing completion %d: %v, want ErrClosed", i, c.Err)
						}
					}
				}
				if abort && !failed {
					t.Fatal("no operation failed despite the closed peer")
				}
			})
		}
	}
}

// TestRequestReleasesBuffer pins what a finished conversation keeps alive.
// A request handle the caller kept does not pin its block, and the lists a
// request travelled through (its conversation's pending FIFO, the CQ) do
// not reach it once it is polled out, even from a kept earlier request.
// The witness for the second is the End request, allocated on its own
// beyond the inline slots: a conversation points into itself, and the
// runtime never finalizes an object reachable from itself.
func TestRequestReleasesBuffer(t *testing.T) {
	chans, sess := newTestChannel(t, "tcp")
	defer sess.Shutdown()
	collected := make(chan string, 2)
	cq := NewCQ()
	submit := func() (first *Request) {
		blk := new([64]byte)
		runtime.SetFinalizer(blk, func(*[64]byte) { collected <- "the first block" })
		send, err := chans[0].SubmitPacking(1, cq)
		if err != nil {
			t.Fatal(err)
		}
		first = send.SubmitPack(blk[:], SendCheaper, ReceiveCheaper)
		for i := 1; i < inlineOps; i++ {
			_ = send.SubmitPack(blk[:], SendCheaper, ReceiveCheaper)
		}
		end := send.SubmitEnd()
		runtime.SetFinalizer(end, func(*Request) { collected <- "the End request" })
		return first
	}
	kept := submit()
	recv := make([]block, inlineOps)
	for i := range recv {
		recv[i] = block{data: make([]byte, 64), sm: SendCheaper, rm: ReceiveCheaper}
	}
	recvMsg(t, chans[1], vclock.NewActor("r"), recv)
	drainEnds(t, cq, 1)
	if cq.Len() != 0 {
		t.Fatalf("%d completions left on the CQ", cq.Len())
	}
	deadline := time.After(5 * time.Second)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case what := <-collected:
			t.Logf("collected %s", what)
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of 2 collected: a completed, polled-out conversation still reaches its first block or its End request", got)
		}
	}
	if c, ok := kept.Completion(); !ok || c.Err != nil || c.N != 64 {
		t.Fatalf("kept request's completion %+v (ok %v), want a clean 64-byte pack", c, ok)
	}
	runtime.KeepAlive(cq)
}

// TestCQContract pins the completion queue's own contract, whatever buffers
// it, by posting done requests directly: Len counts what is buffered, Poll
// and Wait take it oldest first, OnCompletion switches between callback and
// buffered delivery in both directions, Close lets the buffered completions
// drain and then reports ok = false, and a completion posted after Close is
// dropped.
func TestCQContract(t *testing.T) {
	cq := NewCQ()
	var seq uint64
	post := func() *Request {
		seq++
		r := &Request{seq: seq, kind: uint8(OpEnd)}
		r.st.Store(reqDone)
		cq.post(r)
		return r
	}
	take := func(how string, take func() (Completion, bool), want *Request, left int) {
		t.Helper()
		if c, ok := take(); !ok || c.Req != want || c.Seq != want.seq || c.Kind != OpEnd || cq.Len() != left {
			t.Fatalf("%s = %+v (ok %v) with %d left; want request %d with %d left", how, c, ok, cq.Len(), want.seq, left)
		}
	}

	if _, ok := cq.Poll(); ok || cq.Len() != 0 {
		t.Fatal("a fresh CQ is not empty")
	}
	r1, r2, r3 := post(), post(), post()
	if cq.Len() != 3 {
		t.Fatalf("Len = %d after 3 posts, want 3", cq.Len())
	}
	take("Poll", cq.Poll, r1, 2)
	take("Wait", cq.Wait, r2, 1)

	// Callback mode takes the new completions and leaves the buffered one.
	var called []*Request
	cq.OnCompletion(func(c Completion) { called = append(called, c.Req) })
	r4 := post()
	if len(called) != 1 || called[0] != r4 || cq.Len() != 1 {
		t.Fatalf("callback mode: callback saw %d completions, Len %d; want 1 and 1", len(called), cq.Len())
	}
	cq.OnCompletion(nil)
	r5 := post()
	if len(called) != 1 || cq.Len() != 2 {
		t.Fatalf("back in poll mode: callback saw %d completions, Len %d; want 1 and 2", len(called), cq.Len())
	}
	take("Poll", cq.Poll, r3, 1)
	take("Poll", cq.Poll, r5, 0)

	// A Wait that finds the queue empty is woken by a post, or by Close.
	woken := make(chan *Request)
	wait := func(q *CQ) { c, _ := q.Wait(); woken <- c.Req }
	go wait(cq)
	if r6 := post(); <-woken != r6 {
		t.Fatal("a blocked Wait did not return the completion posted under it")
	}
	// Close: what is buffered drains, then ok = false; later posts vanish.
	r7 := post()
	cq.Close()
	take("Wait after Close", cq.Wait, r7, 0)
	if _, ok := cq.Wait(); ok {
		t.Fatal("Wait on a closed, drained CQ returned a completion")
	}
	idle := NewCQ()
	go wait(idle)
	idle.Close()
	if <-woken != nil {
		t.Fatal("a Wait blocked on an empty CQ returned a completion at Close")
	}
	if post(); cq.Len() != 0 {
		t.Fatalf("a completion posted after Close was buffered (Len %d)", cq.Len())
	}
	if _, ok := cq.Poll(); ok {
		t.Fatal("a completion posted after Close reached Poll")
	}
}

// TestTMObservedOncePerPath drives one TM from the sync path and from the
// engine: both land in one <tm>/tx, <tm>/rx histogram pair, each transfer
// counted once.
func TestTMObservedOncePerPath(t *testing.T) {
	sess := NewSession(testWorld(2))
	obs := NewObserver(nil)
	sess.SetObserver(obs)
	chans, err := sess.NewChannel(ChannelSpec{Name: "obs", Driver: "tcp"})
	if err != nil {
		t.Fatal(err)
	}

	a := vclock.NewActor("sync")
	payload := pattern(512, 5)
	cn, err := chans[0].BeginPacking(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.Pack(payload, SendCheaper, ReceiveCheaper); err != nil {
		t.Fatal(err)
	}
	if err := cn.EndPacking(); err != nil {
		t.Fatal(err)
	}
	cq := NewCQ()
	send, err := chans[0].SubmitPacking(1, cq)
	if err != nil {
		t.Fatal(err)
	}
	send.SubmitPack(payload, SendCheaper, ReceiveCheaper)
	send.SubmitEnd()
	drainEnds(t, cq, 1)

	r := vclock.NewActor("r")
	recvMsg(t, chans[1], r, []block{{data: payload, sm: SendCheaper, rm: ReceiveCheaper}})
	recvMsg(t, chans[1], r, []block{{data: payload, sm: SendCheaper, rm: ReceiveCheaper}})

	lats := obs.TMLatencies()
	var txSeen int
	var txCount int64
	for name, s := range lats {
		if len(name) > 3 && name[len(name)-3:] == "/tx" {
			txSeen++
			txCount += s.Count
		}
	}
	if txSeen != 1 {
		t.Fatalf("observed %d tx histograms for single-TM traffic, want 1 (%v)", txSeen, lats)
	}
	if txCount != 2 {
		t.Fatalf("tx histogram counted %d transfers, want 2 (one sync, one async)", txCount)
	}
	sess.Shutdown()
}
