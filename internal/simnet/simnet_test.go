package simnet

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = %d,%v", i, v, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Error("TryPop on empty queue must fail")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue[string]()
	q.Push("a")
	q.Push("b")
	q.Close()
	if v, ok := q.Pop(); !ok || v != "a" {
		t.Fatalf("Pop after close = %q,%v", v, ok)
	}
	if v, ok := q.Pop(); !ok || v != "b" {
		t.Fatalf("Pop after close = %q,%v", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Error("drained closed queue must report !ok")
	}
}

func TestQueueBlockingPop(t *testing.T) {
	q := NewQueue[int]()
	done := make(chan int)
	go func() {
		v, _ := q.Pop()
		done <- v
	}()
	q.Push(42)
	if got := <-done; got != 42 {
		t.Errorf("blocking Pop = %d", got)
	}
}

func TestQueuePushAfterClosePanics(t *testing.T) {
	q := NewQueue[int]()
	q.Close()
	defer func() {
		if recover() == nil {
			t.Error("Push after Close must panic")
		}
	}()
	q.Push(1)
}

func TestQueueConcurrentProducersPreserveCount(t *testing.T) {
	q := NewQueue[int]()
	const producers, per = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(i)
			}
		}()
	}
	wg.Wait()
	if q.Len() != producers*per {
		t.Errorf("Len = %d, want %d", q.Len(), producers*per)
	}
}

// waiterFunc adapts a function to a Queue's asynchronous waiter.
type waiterFunc[T any] func(v T, ok bool)

func (f waiterFunc[T]) Ready(v T, ok bool) { f(v, ok) }

// waitWaiting returns once n waiters are parked on q.
func waitWaiting[T any](t *testing.T, q *Queue[T], n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); q.Waiting() < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", q.Waiting(), n)
		}
	}
}

// TestQueueHandOffFIFO parks Pops and Waiters alternately and pushes one
// item per waiter: each is handed the item whose turn matches its place in
// the one FIFO.
func TestQueueHandOffFIFO(t *testing.T) {
	q := NewQueue[int]()
	const n = 6
	got := make([]chan int, n)
	for i := range n {
		got[i] = make(chan int, 1)
		if i%2 == 0 {
			go func() {
				v, _ := q.Pop()
				got[i] <- v
			}()
		} else if q.PopAsync(new(Slot), waiterFunc[int](func(v int, _ bool) { got[i] <- v })) {
			t.Fatal("PopAsync ran its waiter inline on an empty queue")
		}
		waitWaiting(t, q, i+1)
	}
	for i := range n {
		q.Push(i)
	}
	for i := range n {
		if v := <-got[i]; v != i {
			t.Errorf("waiter %d was handed %d", i, v)
		}
	}
	if q.Len() != 0 || q.Waiting() != 0 {
		t.Errorf("%d items and %d waiters left", q.Len(), q.Waiting())
	}
}

// TestQueueHandedItemNotOvertaken pushes to a parked Pop and then races it:
// the item is the parked Pop's from the moment it is pushed, so neither a
// TryPop nor a later Pop can take it, even before the parked Pop runs.
func TestQueueHandedItemNotOvertaken(t *testing.T) {
	q := NewQueue[int]()
	first := make(chan int, 1)
	go func() {
		v, _ := q.Pop()
		first <- v
	}()
	waitWaiting(t, q, 1)
	q.Push(1)
	if v, ok := q.TryPop(); ok {
		t.Fatalf("TryPop took %d, which was handed to the parked Pop", v)
	}
	q.Push(2)
	if v, _ := q.Pop(); v != 2 {
		t.Errorf("a later Pop took %d, want 2", v)
	}
	if v := <-first; v != 1 {
		t.Errorf("the parked Pop was handed %d, want 1", v)
	}
}

// TestQueueCloseWakesWaiters closes a queue with two Pops and a Waiter
// parked, the first Pop already handed an item: that Pop still takes it,
// the second reports ok = false, and the Waiter fails on the closing
// goroutine, before Close returns.
func TestQueueCloseWakesWaiters(t *testing.T) {
	q := NewQueue[int]()
	type result struct {
		v  int
		ok bool
	}
	pops := [2]chan result{make(chan result, 1), make(chan result, 1)}
	for i := range pops {
		go func() {
			v, ok := q.Pop()
			pops[i] <- result{v, ok}
		}()
		waitWaiting(t, q, i+1)
	}
	failed := false
	q.PopAsync(new(Slot), waiterFunc[int](func(_ int, ok bool) { failed = !ok }))
	q.Push(7)
	q.Close()
	if !failed {
		t.Error("the parked Waiter was not failed on the closing goroutine")
	}
	if r := <-pops[0]; r != (result{7, true}) {
		t.Errorf("the Pop handed 7 before Close got %v", r)
	}
	if r := <-pops[1]; r.ok {
		t.Errorf("a Pop parked on a closed, drained queue got %v", r)
	}
	if q.PopAsync(new(Slot), waiterFunc[int](func(_ int, ok bool) { failed = ok })); failed {
		t.Error("PopAsync on a closed queue handed its waiter an item")
	}
}

func TestWorldTopology(t *testing.T) {
	w := NewWorld(3)
	if w.Size() != 3 {
		t.Fatalf("Size = %d", w.Size())
	}
	a0 := w.Node(0).AddAdapter("myrinet")
	a1 := w.Node(1).AddAdapter("myrinet")
	w.Node(1).AddAdapter("sci")
	if a0.Network() != "myrinet" || a0.Index() != 0 || a0.Node().ID() != 0 {
		t.Errorf("adapter identity wrong: %s/%d on node %d", a0.Network(), a0.Index(), a0.Node().ID())
	}
	// Second adapter on the same network gets the next index.
	b0 := w.Node(0).AddAdapter("myrinet")
	if b0.Index() != 1 {
		t.Errorf("second adapter index = %d", b0.Index())
	}
	got, err := w.Node(0).Adapter("myrinet", 1)
	if err != nil || got != b0 {
		t.Errorf("Adapter lookup: %v, %v", got, err)
	}
	if _, err := w.Node(0).Adapter("sci", 0); err == nil {
		t.Error("node 0 must not have an sci adapter")
	}
	if _, err := w.Node(2).Adapter("myrinet", 0); err == nil {
		t.Error("node 2 must not have adapters")
	}
	peer, err := a0.Peer(1, 0)
	if err != nil || peer != a1 {
		t.Errorf("Peer = %v, %v", peer, err)
	}
	nets := w.Node(1).Networks()
	if len(nets) != 2 {
		t.Errorf("node 1 networks = %v", nets)
	}
	if w.Node(1).Bus() == nil {
		t.Error("node must have a default bus model")
	}
}

func TestWorldBadRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Node(5) on a 2-node world must panic")
		}
	}()
	NewWorld(2).Node(5)
}

func TestDeliverMovesRealBytes(t *testing.T) {
	w := NewWorld(2)
	a0 := w.Node(0).AddAdapter("net")
	a1 := w.Node(1).AddAdapter("net")
	payload := []byte("hello, cluster")
	a0.Deliver(a1, 7, Packet{Data: payload, Arrive: 123, Tag: 9})
	p, ok := a1.Recv(0, 7)
	if !ok || !bytes.Equal(p.Data, payload) || p.Arrive != 123 || p.Tag != 9 {
		t.Fatalf("delivered packet = %+v, ok=%v", p, ok)
	}
	bi, bo, pi, po := a1.Stats()
	if bi != int64(len(payload)) || pi != 1 || bo != 0 || po != 0 {
		t.Errorf("receiver stats = %d/%d/%d/%d", bi, bo, pi, po)
	}
	bi, bo, pi, po = a0.Stats()
	if bo != int64(len(payload)) || po != 1 || bi != 0 || pi != 0 {
		t.Errorf("sender stats = %d/%d/%d/%d", bi, bo, pi, po)
	}
}

func TestLanesAreIndependentAndOrdered(t *testing.T) {
	w := NewWorld(2)
	a0 := w.Node(0).AddAdapter("net")
	a1 := w.Node(1).AddAdapter("net")
	for i := 0; i < 10; i++ {
		a0.Deliver(a1, i%2, Packet{Tag: uint64(i)})
	}
	for lane := 0; lane < 2; lane++ {
		prev := int64(-1)
		q := a1.lane(0, lane).q
		for q.Len() > 0 {
			p, _ := q.Pop()
			if int64(p.Tag) <= prev {
				t.Errorf("lane %d out of order: %d after %d", lane, p.Tag, prev)
			}
			if int(p.Tag)%2 != lane {
				t.Errorf("lane %d got tag %d", lane, p.Tag)
			}
			prev = int64(p.Tag)
		}
	}
}

func TestSegmentWritePollRead(t *testing.T) {
	w := NewWorld(2)
	owner := w.Node(0).AddAdapter("sci")
	remote := w.Node(1).AddAdapter("sci")
	owner.CreateSegment(42, 4096)

	seg, err := remote.ConnectSegment(0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if seg.ID() != 42 || seg.Size() != 4096 {
		t.Fatalf("segment identity: id=%d size=%d", seg.ID(), seg.Size())
	}
	seg.Write(128, []byte("payload"), WriteRecord{Arrive: 555, Tag: 3})
	rec, ok := seg.Poll()
	if !ok || rec.Off != 128 || rec.Len != 7 || rec.Arrive != 555 || rec.Tag != 3 {
		t.Fatalf("record = %+v, ok=%v", rec, ok)
	}
	dst := make([]byte, 7)
	seg.Read(128, dst)
	if string(dst) != "payload" {
		t.Errorf("Read = %q", dst)
	}
	seg.Release()
	if _, ok := seg.Poll(); ok {
		t.Error("released segment must drain to !ok")
	}
}

func TestSegmentErrors(t *testing.T) {
	w := NewWorld(2)
	owner := w.Node(0).AddAdapter("sci")
	remote := w.Node(1).AddAdapter("sci")
	owner.CreateSegment(1, 64)
	if _, err := remote.ConnectSegment(0, 0, 99); err == nil {
		t.Error("connecting a nonexistent segment must fail")
	}
	if _, err := remote.ConnectSegment(0, 3, 1); err == nil {
		t.Error("connecting via a nonexistent peer adapter must fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate segment id must panic")
			}
		}()
		owner.CreateSegment(1, 64)
	}()
	seg, _ := remote.ConnectSegment(0, 0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range write must panic")
			}
		}()
		seg.Write(60, []byte("toolong"), WriteRecord{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range read must panic")
			}
		}()
		seg.Read(-1, make([]byte, 4))
	}()
}

func TestSegmentWriteOrderIsPollOrder(t *testing.T) {
	// Property: records are polled in exactly the order writes were issued.
	f := func(offs []uint8) bool {
		seg := NewSegment(7, 512)
		for i, o := range offs {
			seg.Write(int(o), []byte{byte(i)}, WriteRecord{Tag: uint64(i)})
		}
		for i := range offs {
			rec, ok := seg.Poll()
			if !ok || rec.Tag != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestFaultInjection(t *testing.T) {
	w := NewWorld(2)
	a0 := w.Node(0).AddAdapter("net")
	a1 := w.Node(1).AddAdapter("net")
	a0.CorruptNext()
	a0.Deliver(a1, 0, Packet{Data: []byte{1, 2, 3, 4}})
	a0.Deliver(a1, 0, Packet{Data: []byte{1, 2, 3, 4}})
	p1, _ := a1.Recv(0, 0)
	p2, _ := a1.Recv(0, 0)
	if bytes.Equal(p1.Data, []byte{1, 2, 3, 4}) {
		t.Error("armed fault must corrupt the first packet")
	}
	if !bytes.Equal(p2.Data, []byte{1, 2, 3, 4}) {
		t.Error("fault must be single-shot")
	}
	// Empty payloads pass through without panicking.
	a0.CorruptNext()
	a0.Deliver(a1, 0, Packet{})
	if p, _ := a1.Recv(0, 0); p.Data != nil {
		t.Error("empty packet must stay empty")
	}
}

// TestLendNeverRecycled pins the lend path: Recv returns the lent payload
// itself, the lane's traffic counters move as for Deliver, and the lane
// never takes a lent payload into its free list or its bulk slot, whatever
// its size, so a later Deliver cannot write into the sender's memory. A
// fault strikes a copy and leaves the lent buffer as it was.
func TestLendNeverRecycled(t *testing.T) {
	w := NewWorld(2)
	a0, a1 := w.Node(0).AddAdapter("net"), w.Node(1).AddAdapter("net")
	l := a1.lane(0, 0)
	base := func(b []byte) *byte { return &b[:1][0] }
	owned := func(b []byte) bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		for _, f := range l.free {
			if base(f) == base(b) {
				return true
			}
		}
		return l.bulk != nil && base(l.bulk) == base(b)
	}

	small, bulk := make([]byte, laneBufMax), make([]byte, 2*laneBufMax)
	for _, lent := range [][]byte{small, bulk} {
		lent[0] = 7
		a0.Lend(a1, 0, Packet{Data: lent, Arrive: 5, Tag: 3})
		p, ok := a1.Recv(0, 0)
		if !ok || base(p.Data) != base(lent) || len(p.Data) != len(lent) || p.Arrive != 5 || p.Tag != 3 {
			t.Fatalf("lent %d bytes, received %d (same buffer %v), ok=%v", len(lent), len(p.Data), base(p.Data) == base(lent), ok)
		}
		// The next Recv is where a lane takes back what it lent last.
		a0.Deliver(a1, 0, Packet{Data: lent})
		if p, _ := a1.Recv(0, 0); base(p.Data) == base(lent) || owned(lent) {
			t.Fatalf("a %d-byte lent payload joined the lane's buffers", len(lent))
		}
	}
	if bi, _, pi, _ := a1.Stats(); bi != 2*int64(len(small)+len(bulk)) || pi != 4 {
		t.Errorf("receiver counted %d bytes in %d packets, want %d in 4", bi, pi, 2*(len(small)+len(bulk)))
	}

	a0.CorruptNext()
	a0.Lend(a1, 0, Packet{Data: small})
	p, _ := a1.Recv(0, 0)
	if base(p.Data) == base(small) || p.Data[len(small)/2] == small[len(small)/2] {
		t.Error("a struck lent payload must arrive as the fault's flipped copy")
	}
	if small[len(small)/2] != 0 {
		t.Error("the fault wrote the lent buffer")
	}
	a0.Deliver(a1, 0, Packet{Data: small[:1]})
	a1.Recv(0, 0)
	if owned(small) {
		t.Error("the lane took the lent buffer after a fault struck it")
	}
}
