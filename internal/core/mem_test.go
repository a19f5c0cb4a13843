package core

import (
	"fmt"
	"sync"
	"testing"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// registerMemDriver registers the in-memory driver with the given BMM
// policy for the length of the test and returns its name.
func registerMemDriver(t *testing.T, policy string) string {
	t.Helper()
	name := "mem-" + policy
	wires := &memWires{m: map[[3]int]*memWire{}}
	err := RegisterDriver(DriverDef{
		Name:  name,
		Probe: func(*simnet.Node, int) error { return nil },
		New: func(node *simnet.Node, adapter, chanID int) (PMM, error) {
			return &memPMM{wires: wires, chanID: chanID, tm: &memTM{policy: policy}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { UnregisterDriver(name) })
	return name
}

// memTM hands buffers over an in-process queue by reference at no virtual
// cost; policy picks the BMM. Static buffers cycle between the two ends of
// a wire through its free queue.
type memTM struct{ policy string }

const memStaticSize = 4096

type memWire struct{ data, free *simnet.Queue[[]byte] }

type memWires struct {
	mu sync.Mutex
	m  map[[3]int]*memWire
}

func (w *memWires) wire(chanID, src, dst int) *memWire {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := [3]int{chanID, src, dst}
	if w.m[k] == nil {
		w.m[k] = &memWire{data: simnet.NewQueue[[]byte](), free: simnet.NewQueue[[]byte]()}
	}
	return w.m[k]
}

type memPMM struct {
	wires  *memWires
	chanID int
	tm     *memTM
}

type memConn struct{ tx, rx *memWire }

func (p *memPMM) Name() string                              { return "mem" }
func (p *memPMM) Select(n int, sm SendMode, rm RecvMode) TM { return p.tm }
func (p *memPMM) TMs() []TM                                 { return []TM{p.tm} }
func (p *memPMM) Connect(cs *ConnState) error               { return nil }
func (p *memPMM) PreConnect(cs *ConnState) error {
	cs.Priv = &memConn{
		tx: p.wires.wire(p.chanID, cs.Local(), cs.Remote()),
		rx: p.wires.wire(p.chanID, cs.Remote(), cs.Local()),
	}
	return nil
}

func (t *memTM) Name() string          { return "mem-" + t.policy }
func (t *memTM) Link(n int) model.Link { return model.Link{} }

func (t *memTM) NewBMM(cs *ConnState) BMM {
	switch t.policy {
	case "aggr":
		return NewAggregatingBMM(t, cs)
	case "static":
		return NewStaticCopyBMM(t, cs)
	}
	return NewEagerBMM(t, cs)
}

func (t *memTM) StaticSize() int {
	if t.policy == "static" {
		return memStaticSize
	}
	return 0
}

func (t *memTM) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	cs.Priv.(*memConn).tx.data.Push(data)
	return nil
}

func (t *memTM) SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error {
	return eachBuffer{t}.SendBufferGroup(a, cs, group)
}

func (t *memTM) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	b, _ := cs.Priv.(*memConn).rx.data.Pop()
	if len(b) != len(dst) {
		return fmt.Errorf("mem: got %d bytes, want %d", len(b), len(dst))
	}
	copy(dst, b)
	return nil
}

func (t *memTM) ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error {
	return eachBuffer{t}.ReceiveSubBufferGroup(a, cs, dsts)
}

func (t *memTM) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	if b, ok := cs.Priv.(*memConn).tx.free.TryPop(); ok {
		return b[:memStaticSize], nil
	}
	return make([]byte, memStaticSize), nil
}

func (t *memTM) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	b, _ := cs.Priv.(*memConn).rx.data.Pop()
	return b, nil
}

func (t *memTM) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	cs.Priv.(*memConn).rx.free.Push(buf)
	return nil
}
