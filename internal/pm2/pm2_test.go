package pm2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/vclock"
)

// runtimes builds n attached PM2 runtimes over the given driver.
func runtimes(t *testing.T, n int, driver string) []*Runtime {
	t.Helper()
	w := simnet.NewWorld(n)
	for i := 0; i < n; i++ {
		w.Node(i).AddAdapter(sisci.Network)
		w.Node(i).AddAdapter(bip.Network)
	}
	sess := core.NewSession(w)
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "pm2", Driver: driver})
	if err != nil {
		t.Fatal(err)
	}
	rts := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		rts[i] = Attach(chans[i])
	}
	t.Cleanup(func() {
		for _, rt := range rts {
			rt.Close()
		}
	})
	return rts
}

func TestLRPCRoundTrip(t *testing.T) {
	rts := runtimes(t, 2, "sisci")
	rts[1].RegisterService(1, func(rt *Runtime, a *vclock.Actor, from int, args []byte) []byte {
		if from != 0 {
			t.Errorf("from = %d", from)
		}
		a.Advance(vclock.Micros(5)) // service work
		out := append([]byte("echo:"), args...)
		return out
	})
	a := vclock.NewActor("caller")
	reply, err := rts[0].Call(a, 1, 1, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:payload" {
		t.Errorf("reply = %q", reply)
	}
	// The caller's clock includes both directions plus the service work.
	if a.Now() < vclock.Micros(13) {
		t.Errorf("caller clock %v misses the round trip", a.Now())
	}
	// Close joins the server thread that sent the reply, so the world is
	// at rest once both runtimes are closed.
	for _, rt := range rts {
		rt.Close()
	}
	if err := rts[0].ch.Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseJoinsServerThreads holds a service handler on a test channel
// and requires Runtime.Close to wait for it: Close must not return while
// the server thread runs, and returns once it is released and replied.
func TestCloseJoinsServerThreads(t *testing.T) {
	rts := runtimes(t, 2, "sisci")
	entered, release := make(chan struct{}), make(chan struct{})
	called := make(chan error, 1)
	held := true
	defer func() {
		// On failure, let the call finish before the cleanup closes its
		// caller's runtime under the reply.
		if held {
			close(release)
			<-called
		}
	}()
	rts[1].RegisterService(3, func(rt *Runtime, a *vclock.Actor, from int, args []byte) []byte {
		close(entered)
		<-release
		return args
	})
	go func() {
		_, err := rts[0].Call(vclock.NewActor("caller"), 1, 3, []byte("held"))
		called <- err
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		rts[1].Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Runtime.Close returned while a service handler was still running")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	held = false
	<-closed
	if err := <-called; err != nil {
		t.Fatalf("the held call: %v", err)
	}
	rts[0].Close()
	if err := rts[0].ch.Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestCallFailsOnClose closes a runtime under a Call still waiting for its
// reply: the Call fails with an error wrapping core.ErrClosed, so does a
// Call issued afterwards, and the server thread's reply, which the closed
// caller refuses, is dropped rather than panicking the server.
func TestCallFailsOnClose(t *testing.T) {
	rts := runtimes(t, 2, "sisci")
	entered, release := make(chan struct{}), make(chan struct{})
	rts[1].RegisterService(4, func(rt *Runtime, a *vclock.Actor, from int, args []byte) []byte {
		close(entered)
		<-release
		return args
	})
	called := make(chan error, 1)
	go func() {
		_, err := rts[0].Call(vclock.NewActor("caller"), 1, 4, []byte("orphan"))
		called <- err
	}()
	<-entered
	rts[0].Close()
	select {
	case err := <-called:
		if !errors.Is(err, core.ErrClosed) {
			t.Errorf("a Call overtaken by Close returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a Call pending when its runtime closed never returned")
	}
	if _, err := rts[0].Call(vclock.NewActor("late"), 1, 4, nil); !errors.Is(err, core.ErrClosed) {
		t.Errorf("a Call on a closed runtime returned %v, want ErrClosed", err)
	}
	close(release)
	rts[1].Close() // joins the server thread, whose reply rank 0 refuses
	if err := rts[0].ch.Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCallsFromManyThreads(t *testing.T) {
	rts := runtimes(t, 2, "sisci")
	rts[1].RegisterService(7, func(rt *Runtime, a *vclock.Actor, from int, args []byte) []byte {
		return args
	})
	const callers = 6
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			a := vclock.NewActor(fmt.Sprintf("caller-%d", i))
			arg := []byte{byte(i)}
			reply, err := rts[0].Call(a, 1, 7, arg)
			if err == nil && !bytes.Equal(reply, arg) {
				err = fmt.Errorf("reply %v for arg %v", reply, arg)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestCallErrors(t *testing.T) {
	rts := runtimes(t, 2, "sisci")
	a := vclock.NewActor("caller")
	if _, err := rts[0].Call(a, 9, 1, nil); err == nil {
		t.Error("call to a nonexistent node must fail")
	}
}

// hopState encodes a migratory task's state: hops left + a visit trace.
func hopState(left int, visits []byte) []byte {
	return append([]byte{byte(left)}, visits...)
}

func TestTaskMigration(t *testing.T) {
	const nodes = 3
	rts := runtimes(t, nodes, "bip")
	// The behavior hops to the next node until the counter drains.
	for _, rt := range rts {
		rt.RegisterBehavior(1, func(rt *Runtime, a *vclock.Actor, state []byte) Outcome {
			left := int(state[0])
			visits := append(append([]byte(nil), state[1:]...), byte(rt.Rank()))
			a.Advance(vclock.Micros(20)) // per-hop compute
			if left == 0 {
				return Outcome{State: visits, Done: true}
			}
			return Outcome{
				State:     hopState(left-1, visits),
				MigrateTo: (rt.Rank() + 1) % nodes,
			}
		})
	}
	a := vclock.NewActor("spawner")
	if err := rts[0].Spawn(a, 0, 1, hopState(5, nil)); err != nil {
		t.Fatal(err)
	}
	// 5 hops starting at node 0 end on node (0+5)%3 = 2.
	fin, ok := rts[2].Finished()
	if !ok {
		t.Fatal("runtime closed")
	}
	want := []byte{0, 1, 2, 0, 1, 2}
	if !bytes.Equal(fin.State, want) {
		t.Errorf("visit trace = %v, want %v", fin.State, want)
	}
	if fin.Node != 2 {
		t.Errorf("finished on node %d", fin.Node)
	}
	// Virtual time covers 6 compute steps plus 5 migrations.
	if fin.At < vclock.Micros(6*20) {
		t.Errorf("completion %v misses the compute steps", fin.At)
	}
}

func TestRemoteSpawn(t *testing.T) {
	rts := runtimes(t, 2, "sisci")
	rts[1].RegisterBehavior(2, func(rt *Runtime, a *vclock.Actor, state []byte) Outcome {
		return Outcome{State: []byte{state[0] * 2}, Done: true}
	})
	a := vclock.NewActor("spawner")
	if err := rts[0].Spawn(a, 1, 2, []byte{21}); err != nil {
		t.Fatal(err)
	}
	fin, ok := rts[1].Finished()
	if !ok || fin.State[0] != 42 {
		t.Errorf("remote task result = %v, ok=%v", fin.State, ok)
	}
}

// TestMigrationForLoadBalance demonstrates what PM2 migration buys: a
// CPU-bound batch finishes earlier when half the tasks migrate from the
// loaded node to an idle one.
func TestMigrationForLoadBalance(t *testing.T) {
	const tasks = 8
	const work = 500 // µs of compute per task
	finishAt := func(migrate bool) vclock.Time {
		rts := runtimes(t, 2, "sisci")
		for _, rt := range rts {
			rt.RegisterBehavior(3, func(rt *Runtime, a *vclock.Actor, state []byte) Outcome {
				idx := state[0]
				if migrate && rt.Rank() == 0 && idx%2 == 1 {
					return Outcome{State: state, MigrateTo: 1}
				}
				a.Advance(vclock.Micros(work))
				return Outcome{State: state, Done: true}
			})
		}
		a := vclock.NewActor("spawner")
		for i := 0; i < tasks; i++ {
			if err := rts[0].Spawn(a, 0, 3, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		var last vclock.Time
		for i := 0; i < tasks; i++ {
			node := 0
			if migrate && i%2 == 1 {
				node = 1
			}
			fin, ok := rts[node].Finished()
			if !ok {
				t.Fatal("runtime closed")
			}
			if fin.At > last {
				last = fin.At
			}
		}
		return last
	}
	serial := finishAt(false)
	balanced := finishAt(true)
	if balanced >= serial {
		t.Errorf("migration must shorten the makespan: %v vs %v", balanced, serial)
	}
	// Eight 500 µs tasks on one node: 4 ms; balanced: ≈2 ms + migration.
	if serial < vclock.Micros(tasks*work) {
		t.Errorf("serial makespan %v below the compute floor", serial)
	}
	if balanced > vclock.Micros(tasks*work*3/4) {
		t.Errorf("balanced makespan %v did not improve enough", balanced)
	}
}

func TestHeaderEncoding(t *testing.T) {
	// The wire envelope is fixed-size and position-stable: a regression
	// guard for the dispatcher's parsing.
	var hdr [hdrSize]byte
	hdr[0] = kindTask
	binary.LittleEndian.PutUint32(hdr[4:], 77)
	binary.LittleEndian.PutUint32(hdr[8:], 5)
	binary.LittleEndian.PutUint32(hdr[12:], 1234)
	if hdr[0] != kindTask || binary.LittleEndian.Uint32(hdr[12:]) != 1234 {
		t.Error("envelope layout broken")
	}
}
