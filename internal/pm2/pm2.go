// Package pm2 is a compact runtime in the style of PM2, the "Parallel
// Multithreaded Machine" of Namyst & Méhaut — the RPC-based multithreaded
// environment whose needs motivated Madeleine in the first place (§1 of
// the paper: "environments providing an RPC-based programming model such
// as Nexus or PM2").
//
// Two facilities are provided over Madeleine channels:
//
//   - LRPC: lightweight remote procedure calls. The request header
//     (service id, argument size, call id) travels receive_EXPRESS so the
//     dispatcher can route it; arguments travel receive_CHEAPER — exactly
//     the interaction pattern §2.2 designs for.
//   - Migratable tasks: PM2's hallmark. A task is serialized state plus a
//     registered behavior; Step may ask to migrate, and the runtime ships
//     the state to the target node where the behavior resumes. (Go cannot
//     move a live goroutine, so migration points are explicit — the moral
//     equivalent of PM2's cooperative migration calls.)
package pm2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Behavior is one step of a migratable task. It receives the task's
// serialized state and returns the outcome: updated state, completion, or
// a migration request.
type Behavior func(rt *Runtime, a *vclock.Actor, state []byte) Outcome

// Outcome is a behavior step's result.
type Outcome struct {
	State     []byte
	Done      bool
	MigrateTo int // target node rank, or -1 to stay
}

// Stay continues on the current node.
const Stay = -1

// Service handles one LRPC and returns the reply payload.
type Service func(rt *Runtime, a *vclock.Actor, from int, args []byte) []byte

// message kinds on the wire.
const (
	kindCall = iota + 1
	kindReply
	kindTask
	kindStop
)

// hdrSize is the runtime's express envelope: kind, id, payload size and an
// auxiliary field (service/behavior identifier).
const hdrSize = 16

// Runtime is one node's PM2 instance over a Madeleine channel.
type Runtime struct {
	ch   *core.Channel
	rank int

	mu        sync.Mutex
	services  map[uint32]Service
	behaviors map[uint32]Behavior
	replies   map[uint32]*simnet.Queue[reply] // pending Calls, by call id
	nextCall  uint32
	closed    bool

	tasks    *simnet.Queue[task]
	finished *simnet.Queue[Finished]
	threads  sync.WaitGroup // dispatcher, worker and LRPC server threads
}

type reply struct {
	data  []byte
	stamp vclock.Time
}

type task struct {
	behavior uint32
	state    []byte
	stamp    vclock.Time
}

// Finished describes a completed task.
type Finished struct {
	Behavior uint32
	State    []byte
	Node     int
	At       vclock.Time
}

// Attach builds the runtime of one rank and starts its dispatcher and
// worker threads.
func Attach(ch *core.Channel) *Runtime {
	rt := &Runtime{
		ch:        ch,
		rank:      ch.Rank(),
		services:  make(map[uint32]Service),
		behaviors: make(map[uint32]Behavior),
		replies:   make(map[uint32]*simnet.Queue[reply]),
		tasks:     simnet.NewQueue[task](),
		finished:  simnet.NewQueue[Finished](),
	}
	rt.threads.Add(2)
	go rt.dispatch()
	go rt.work()
	return rt
}

// Rank reports the runtime's node rank.
func (rt *Runtime) Rank() int { return rt.rank }

// errClosed fails a Call that its runtime's Close overtook.
var errClosed = fmt.Errorf("pm2: runtime closed during call: %w", core.ErrClosed)

// Close stops the runtime's threads and returns once they have, LRPC
// server threads still running a service included. A Call still waiting
// for its reply, or issued later, fails with an error wrapping
// core.ErrClosed.
func (rt *Runtime) Close() {
	rt.ch.Close()
	rt.tasks.Close()
	rt.mu.Lock()
	rt.closed = true
	for _, q := range rt.replies {
		q.Close()
	}
	rt.mu.Unlock()
	rt.threads.Wait()
}

// RegisterService binds an LRPC service id.
func (rt *Runtime) RegisterService(id uint32, s Service) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.services[id] = s
}

// RegisterBehavior binds a task behavior id. Every node that may host the
// task must register the same id (PM2 programs are SPMD binaries).
func (rt *Runtime) RegisterBehavior(id uint32, b Behavior) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.behaviors[id] = b
}

// send ships one envelope+payload message. Concurrent senders toward dst
// need no lock of their own: Send holds the connection's send lease for
// the whole message, and the lease queues them FIFO in virtual time (PM2
// guards each connection with a lock for the same reason).
func (rt *Runtime) send(a *vclock.Actor, dst int, kind byte, id uint32, aux uint32, payload []byte) error {
	return rt.ch.Send(a, dst, func(conn *core.Connection) error {
		var hdr [hdrSize]byte
		hdr[0] = kind
		binary.LittleEndian.PutUint32(hdr[4:], id)
		binary.LittleEndian.PutUint32(hdr[8:], aux)
		binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
		if err := conn.Pack(hdr[:], core.SendSafer, core.ReceiveExpress); err != nil || len(payload) == 0 {
			return err
		}
		return conn.Pack(payload, core.SendCheaper, core.ReceiveCheaper)
	})
}

// Call performs a synchronous LRPC: the caller blocks until the service's
// reply arrives and its clock advances to the reply's arrival.
func (rt *Runtime) Call(a *vclock.Actor, dst int, service uint32, args []byte) ([]byte, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, errClosed
	}
	rt.nextCall++
	id := rt.nextCall
	q := simnet.NewQueue[reply]()
	rt.replies[id] = q
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		delete(rt.replies, id)
		rt.mu.Unlock()
	}()
	if err := rt.send(a, dst, kindCall, id, service, args); err != nil {
		return nil, err
	}
	r, ok := q.Pop()
	if !ok {
		return nil, errClosed
	}
	a.Sync(r.stamp)
	return r.data, nil
}

// Spawn starts a task with the given behavior and initial state on the
// destination node (possibly the local one).
func (rt *Runtime) Spawn(a *vclock.Actor, dst int, behavior uint32, state []byte) error {
	if dst == rt.rank {
		rt.tasks.Push(task{behavior: behavior, state: append([]byte(nil), state...), stamp: a.Now()})
		return nil
	}
	return rt.send(a, dst, kindTask, 0, behavior, state)
}

// Finished blocks for the next completed task on this node.
func (rt *Runtime) Finished() (Finished, bool) { return rt.finished.Pop() }

// dispatch is the runtime's message thread.
func (rt *Runtime) dispatch() {
	defer rt.threads.Done()
	a := vclock.NewActor(fmt.Sprintf("pm2-dispatch-%d", rt.rank))
	for {
		from := -1
		var hdr [hdrSize]byte
		var payload []byte
		err := rt.ch.Recv(a, func(conn *core.Connection) error {
			from = conn.Remote()
			if err := conn.Unpack(hdr[:], core.SendSafer, core.ReceiveExpress); err != nil {
				return err
			}
			payload = make([]byte, binary.LittleEndian.Uint32(hdr[12:]))
			if len(payload) == 0 {
				return nil
			}
			return conn.Unpack(payload, core.SendCheaper, core.ReceiveCheaper)
		})
		if from < 0 {
			rt.finished.Close()
			return
		}
		if err != nil {
			panic(fmt.Sprintf("pm2 dispatch %d: %v", rt.rank, err))
		}
		kind := hdr[0]
		id := binary.LittleEndian.Uint32(hdr[4:])
		aux := binary.LittleEndian.Uint32(hdr[8:])
		switch kind {
		case kindCall:
			rt.mu.Lock()
			svc := rt.services[aux]
			rt.mu.Unlock()
			if svc == nil {
				panic(fmt.Sprintf("pm2 dispatch %d: no service %d", rt.rank, aux))
			}
			// "The request is executed by a server thread": hand off so
			// the dispatcher keeps serving; the thread inherits the
			// arrival time.
			ta := vclock.NewActor(fmt.Sprintf("pm2-srv-%d-%d", rt.rank, id))
			ta.Sync(a.Now())
			rt.threads.Add(1)
			go func() {
				defer rt.threads.Done()
				out := svc(rt, ta, from, payload)
				// A caller that closed meanwhile refuses the reply: drop it.
				if err := rt.send(ta, from, kindReply, id, 0, out); err != nil && !errors.Is(err, core.ErrClosed) {
					panic(fmt.Sprintf("pm2 reply %d: %v", rt.rank, err))
				}
			}()
		case kindReply:
			rt.mu.Lock()
			q := rt.replies[id]
			rt.mu.Unlock()
			if q != nil {
				q.PushIfOpen(reply{data: payload, stamp: a.Now()})
			}
		case kindTask:
			rt.tasks.Push(task{behavior: aux, state: payload, stamp: a.Now()})
		default:
			panic(fmt.Sprintf("pm2 dispatch %d: unknown kind %d", rt.rank, kind))
		}
	}
}

// work is the runtime's task execution thread.
func (rt *Runtime) work() {
	defer rt.threads.Done()
	a := vclock.NewActor(fmt.Sprintf("pm2-worker-%d", rt.rank))
	for {
		t, ok := rt.tasks.Pop()
		if !ok {
			return
		}
		a.Sync(t.stamp)
		rt.mu.Lock()
		b := rt.behaviors[t.behavior]
		rt.mu.Unlock()
		if b == nil {
			panic(fmt.Sprintf("pm2 worker %d: no behavior %d", rt.rank, t.behavior))
		}
		out := b(rt, a, t.state)
		switch {
		case out.Done:
			rt.finished.Push(Finished{Behavior: t.behavior, State: out.State, Node: rt.rank, At: a.Now()})
		case out.MigrateTo != Stay && out.MigrateTo != rt.rank:
			// PM2 migration: serialize and ship; the task resumes on the
			// target's worker with the arrival time.
			if err := rt.send(a, out.MigrateTo, kindTask, 0, t.behavior, out.State); err != nil {
				panic(fmt.Sprintf("pm2 migrate %d->%d: %v", rt.rank, out.MigrateTo, err))
			}
		default:
			rt.tasks.Push(task{behavior: t.behavior, state: out.State, stamp: a.Now()})
		}
	}
}
