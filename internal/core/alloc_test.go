//go:build !race

package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"madeleine2/internal/vclock"
)

// allocsPerMessage warms the lane past every ring's first cycle (the
// deepest is sisci's 32 slots) and reports the steady-state count, as a
// fraction: testing.AllocsPerRun rounds down, which would hide a credit
// grant that allocates once per half window.
func (l *table1Lane) allocsPerMessage(t *testing.T) float64 {
	t.Helper()
	const n = 4000
	var before, after runtime.MemStats
	for i := -200; i < n; i++ {
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := l.oneMessage(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// allocSlack absorbs the runtime's own rare allocations during a run.
const allocSlack = 0.01

// raceEnabled is false in the builds that run this file (see race_test.go).
const raceEnabled = false

// driverResidue is what a driver allocates per Table-1 message on its own.
// Every driver has none except the rendezvous ablation: rdma-rdv forces
// the header and the body through rendezvous, where they take turns on the
// direction's one kept destination registration. So each block misses it
// and registers its destination afresh: the MemRegion, its segment, the
// segment's completion queue with its cond, and the queue's first ring.
var driverResidue = map[string]float64{"rdma-rdv": 10}

// TestMessagePathAllocs gates the Table-1 path's allocation count with no
// observer installed. The floor is the two Connection handles, one per
// Begin…. Unlike a Send/Recv scope, a Begin… handle outlives anything the
// library can see: the caller may keep it past End…, and a kept handle
// must stay closed, so it cannot be a per-connection slot that the next
// message reopens under it. The handle is its message's abort latch.
func TestMessagePathAllocs(t *testing.T) {
	if size := unsafe.Sizeof(Connection{}); size > 48 {
		t.Errorf("Connection is %d bytes, want at most 48 (the next size class is 64)", size)
	}
	for _, drv := range Drivers() {
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			got := newTable1Lane(t, chans).allocsPerMessage(t)
			if want := 2 + driverResidue[drv]; got > want+allocSlack {
				t.Errorf("%s: %.2f allocs per Table-1 message, want at most %.0f", drv, got, want)
			}
		})
	}
}

// TestMessageStateHasNoMaps keeps hash lookups off the message path: a
// message finds its BMMs, static free lists and block counters by TM
// number in slices made at connect, so none of the state it touches per
// block — ConnState, msgState, the Connection holding it, and chanStats'
// counters — may have a map field, also inside an embedded struct.
func TestMessageStateHasNoMaps(t *testing.T) {
	var check func(where string, typ reflect.Type)
	check = func(where string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Map:
				t.Errorf("%s.%s is a map (%s): number what it holds at connect instead", where, f.Name, f.Type)
			case reflect.Struct:
				check(where+"."+f.Name, f.Type)
			}
		}
	}
	for _, v := range []any{ConnState{}, msgState{}, Connection{}, chanStats{}} {
		typ := reflect.TypeOf(v)
		check(typ.Name(), typ)
	}
}

// TestScopedMessageAllocs runs the same message through Send/Recv: each
// closure gets its direction's slot on the ConnState, so a scoped message
// allocates nothing beyond the driver's residue.
func TestScopedMessageAllocs(t *testing.T) {
	for _, drv := range Drivers() {
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			got := newLane(t, chans, 1024, true).allocsPerMessage(t)
			if want := driverResidue[drv]; got > want+allocSlack {
				t.Errorf("%s: %.2f allocs per scoped Table-1 message, want at most %.0f", drv, got, want)
			}
		})
	}
}

// bulkResidue is what a driver allocates per 1 MiB Table-1 message on its
// own. A warm body finds its buffer still registered from the last message,
// on both via sides and on rdma's receive side, so only rdma-rdv registers:
// its header and body miss the direction's kept registration in turn (see
// driverResidue).
var bulkResidue = map[string]float64{"rdma-rdv": 10}

// bulkSlack absorbs the runtime's own allocations: a 1 MiB message per
// call runs a garbage collection every few calls.
const bulkSlack = 0.25

// TestBulkMessageAllocs gates the bulk path: a warm scoped message with a
// 1 MiB receive_CHEAPER body allocates nothing beyond the driver's
// residue. SBP's body crosses in 33 kernel buffers, each lent to the
// receiver and released back to the sender's pool, so ten messages
// allocate no buffer memory at all.
func TestBulkMessageAllocs(t *testing.T) {
	const n = 100
	for _, drv := range Drivers() {
		t.Run(drv, func(t *testing.T) {
			chans, _ := newTestChannel(t, drv)
			l := newLane(t, chans, 1<<20, true)
			run := func(k int) (allocs, bytes uint64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < k; i++ {
					if err := l.oneMessage(); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
			}
			if drv == "sbp" {
				// The kernel pool grows once to its deepest burst and keeps
				// it: warm it with a whole message in flight before its
				// receiver starts, so no later interleaving finds it short.
				if err := l.sendOne(); err != nil {
					t.Fatal(err)
				}
				l.next <- struct{}{}
				if err := <-l.done; err != nil {
					t.Fatal(err)
				}
			}
			run(20)
			allocs, _ := run(n)
			if got, want := float64(allocs)/n, bulkResidue[drv]; got > want+bulkSlack {
				t.Errorf("%s: %.2f allocs per 1 MiB message, want at most %.0f", drv, got, want)
			}
			if drv != "sbp" {
				return
			}
			// The runtime's own background work shows up as a few bytes now and then.
			if _, bytes := run(10); bytes > 1024 {
				t.Errorf("sbp: %d bytes allocated over ten 1 MiB messages, want none", bytes)
			}
		})
	}
}

// TestTCPLaneBufferReuse pins the tcp lane's bulk buffers under a ping-pong
// whose body length varies within one 32 KiB multiple, with the echoer's
// next receive held back until the initiator's next message has landed on
// its lane. A body lands in a lane buffer made at a multiple of 32 KiB, so
// a later, larger body of the same multiple fits it; and the mover gives
// the buffer back as soon as it has read the kernel message to its end,
// so that message's successor finds it idle even before the next receive.
// After the first round trip, no lane buffer is made.
func TestTCPLaneBufferReuse(t *testing.T) {
	const rounds = 16
	chans, _ := newTestChannel(t, "tcp")
	lens := []int{1<<20 - 30000, 1<<20 - 20000, 1<<20 - 10000, 1 << 20}
	body, rbody, ebody := pattern(1<<20, 3), make([]byte, 1<<20), make([]byte, 1<<20)
	s, e := vclock.NewActor("s"), vclock.NewActor("e")
	sent, echoed := make(chan int), make(chan error)
	go func() {
		for i := range sent {
			n := lens[i%len(lens)]
			echoed <- func() error {
				err := chans[1].Recv(e, func(cn *Connection) error {
					return cn.Unpack(ebody[:n], SendCheaper, ReceiveCheaper)
				})
				if err != nil {
					return err
				}
				return chans[1].Send(e, 0, func(cn *Connection) error {
					return cn.Pack(ebody[:n], SendCheaper, ReceiveCheaper)
				})
			}()
		}
	}()
	defer close(sent)
	roundTrip := func(i int) {
		n := lens[i%len(lens)]
		err := chans[0].Send(s, 1, func(cn *Connection) error {
			return cn.Pack(body[:n], SendCheaper, ReceiveCheaper)
		})
		if err != nil {
			t.Fatal(err)
		}
		sent <- i // the echoer's receive starts after the body landed
		if err := <-echoed; err != nil {
			t.Fatal(err)
		}
		err = chans[0].Recv(s, func(cn *Connection) error {
			return cn.Unpack(rbody[:n], SendCheaper, ReceiveCheaper)
		})
		if err != nil {
			t.Fatal(err)
		}
		if rbody[0] != body[0] || rbody[n-1] != body[n-1] {
			t.Fatalf("round trip %d: the echo of %d bytes differs", i, n)
		}
	}
	roundTrip(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < rounds; i++ {
		roundTrip(i)
	}
	runtime.ReadMemStats(&after)
	// The runtime's own background work shows up as a few bytes now and then.
	if n := after.TotalAlloc - before.TotalAlloc; n >= laneBufMaxBytes {
		t.Errorf("%d bytes allocated over %d round trips after the first, want no lane buffer (%d bytes or more)", n, rounds-1, laneBufMaxBytes)
	}
}

// laneBufMaxBytes is simnet's lane buffer limit: no bulk buffer is smaller.
const laneBufMaxBytes = 32 << 10

// TestWorldsAreCollectable pins that no driver keeps a torn-down world
// alive: per driver, 40 worlds each built and used for one 64 KiB message
// may leave the heap at most 0.5 MiB larger (a retained via or rdma world
// is ~75 KiB). A heap reading, not a finalizer: a world is cyclic.
func TestWorldsAreCollectable(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	blocks := []block{{data: pattern(64<<10, 3), sm: SendCheaper, rm: ReceiveCheaper}}
	for _, drv := range Drivers() {
		t.Run(drv, func(t *testing.T) {
			before := heap()
			for i := 0; i < 40; i++ {
				roundTrip(t, drv, blocks)
			}
			if grew := heap() - before; grew > 512<<10 {
				t.Errorf("%s: heap grew %d KiB over 40 abandoned worlds, want under 512", drv, grew>>10)
			}
		})
	}
}

// TestBMMAllocs runs the same message over an in-memory TM, once per BMM
// policy: with no driver underneath, the two Connection handles are all
// that is left.
func TestBMMAllocs(t *testing.T) {
	for _, policy := range []string{"eager", "aggr", "static"} {
		t.Run(policy, func(t *testing.T) {
			chans, _ := newTestChannel(t, registerMemDriver(t, policy))
			if got := newTable1Lane(t, chans).allocsPerMessage(t); got < 2 || got > 2+allocSlack {
				t.Errorf("%s BMM: %.2f allocs per Table-1 message, want exactly 2", policy, got)
			}
		})
	}
}

// asyncConvAllocs reports the steady-state allocation count of one async
// send conversation plus its mirror receive conversation, each of `blocks`
// 64-byte blocks and an End, drained before the next pair is opened.
// Everything the caller owns is allocated up front.
func asyncConvAllocs(t *testing.T, chans map[int]*Channel, blocks int) float64 {
	t.Helper()
	scq, rcq := NewCQ(), NewCQ()
	src, dst := pattern(64, 5), make([]byte, 64)
	drain := func(cq *CQ) {
		for {
			c, ok := cq.Wait()
			if !ok || c.Err != nil {
				t.Fatalf("completion %+v (ok %v)", c, ok)
			}
			if c.Kind == OpEnd {
				return
			}
		}
	}
	const n = 2000
	var before, after runtime.MemStats
	for i := -200; i < n; i++ {
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		send, err := chans[0].SubmitPacking(1, scq)
		if err != nil {
			t.Fatal(err)
		}
		recv := chans[1].SubmitUnpacking(rcq)
		for b := 0; b < blocks; b++ {
			_ = send.SubmitPack(src, SendCheaper, ReceiveCheaper)
			_ = recv.SubmitUnpack(dst, SendCheaper, ReceiveCheaper)
		}
		_ = send.SubmitEnd()
		_ = recv.SubmitEnd()
		drain(scq)
		drain(rcq)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// TestAsyncConversationAllocs gates the asynchronous path: a conversation
// is one heap object (its actor, Connection and first inlineOps requests
// included), so a send plus its mirror receive is two allocations, with
// two operations each or with three, and the hand-offs (lease grant,
// announcement, run queue, completion queue) add none.
func TestAsyncConversationAllocs(t *testing.T) {
	if size := unsafe.Sizeof(AsyncMsg{}); size > 480 {
		t.Errorf("AsyncMsg is %d bytes, want at most 480, its size class", size)
	}
	mem := registerMemDriver(t, "eager")
	for _, ops := range []int{2, inlineOps} {
		chans, sess := newTestChannel(t, mem)
		if got := asyncConvAllocs(t, chans, ops-1); got < 2 || got > 2+allocSlack {
			t.Errorf("mem, %d ops: %.2f allocs per conversation pair, want exactly 2", ops, got)
		}
		sess.Shutdown()
	}
	// Over a real driver the lanes' buffers come on top when a burst runs
	// deeper than a lane keeps; one pair at a time stays within it.
	chans, sess := newTestChannel(t, "tcp")
	defer sess.Shutdown()
	if got := asyncConvAllocs(t, chans, 1); got < 2 || got > 4+allocSlack {
		t.Errorf("tcp: %.2f allocs per conversation pair, want 2 to 4", got)
	}
}

// TestContendedLeaseAllocs hands a direction lease, round after round, to
// an actor parked on it: a contended sync acquire waits on the lease
// queue's ticket and allocates nothing.
func TestContendedLeaseAllocs(t *testing.T) {
	const rounds = 1000
	l := newLease()
	a, b := vclock.NewActor("a"), vclock.NewActor("b")
	l.acquire(a)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= rounds; i++ { // AllocsPerRun adds a warm-up round
			l.acquire(b)
			l.release(b)
		}
	}()
	round := func() {
		for _, parked := l.state(); parked == 0; _, parked = l.state() {
			runtime.Gosched()
		}
		l.release(a) // to b, parked
		l.acquire(a) // back from b
	}
	if allocs := testing.AllocsPerRun(rounds, round); allocs != 0 {
		t.Errorf("%v allocations per contended round, want 0", allocs)
	}
	<-done
	l.release(a)
	if held, parked := l.state(); held || parked != 0 {
		t.Errorf("lease held %v with %d parked after the rounds", held, parked)
	}
}

// TestRailAllocsIndependentOfChunks gates the striping TM's frames: each
// rail keeps one per direction, so a striped message allocates the same
// count (forkRails' per-operation actors and goroutines) however many
// chunks it has. Nothing bounds a tcp sender's lead over the receiver, so
// the tcp case stays within the 8 buffers a simnet lane keeps (6 frames per
// rail, the header and the one the receiver holds); bip and sisci bound the
// lead by their own flow control.
func TestRailAllocsIndependentOfChunks(t *testing.T) {
	const stripe = 1 << 10
	for _, tc := range []struct {
		driver    string
		few, many int
	}{{"tcp", 4, 12}, {"bip", 4, 64}, {"sisci", 4, 64}} {
		perMessage := func(chunks int) float64 {
			chans, _ := newRailTestChannel(t, fmt.Sprintf("frames-%s-%d", tc.driver, chunks), sameRails(tc.driver, 2), stripe)
			return newLane(t, chans, chunks*stripe, false).allocsPerMessage(t)
		}
		// forkRails starts goroutines per operation, and what the runtime
		// allocates for them varies with scheduling by a few hundredths; a
		// frame per chunk would show as two per extra chunk.
		if few, many := perMessage(tc.few), perMessage(tc.many); math.Abs(few-many) > 0.5 {
			t.Errorf("2 %s rails: %.2f allocs for a %d-chunk message, %.2f for a %d-chunk one; want the same",
				tc.driver, few, tc.few, many, tc.many)
		}
	}
}
