package main

import (
	"fmt"
	"sync"

	"madeleine2/internal/core"
	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// The null driver: a protocol module registered through core.RegisterDriver
// (the way internal/overmpi plugs in) whose transmission module hands
// buffers over an in-process queue by reference, at zero virtual cost. What
// a message costs over it is core's own cost: op descriptors, the Switch
// step, the chosen BMM, the lease, the announcement queue. Three driver
// names select the three BMM policies.

const (
	nullStaticSize = 4096 // static-buffer payload size of the null-static TM
	nullWireDepth  = 1024 // buffers a wire holds before a sender blocks
)

var nullPolicies = []string{"eager", "aggr", "static"}

func nullDriverName(policy string) string { return "null-" + policy }

// wire is one direction of one connection: the data queue and, for the
// static policy, the free list its buffers return to.
type wire struct {
	data chan []byte
	free chan []byte
}

type wireKey struct{ chanID, src, dst int }

// nullFabric is what the two ends of a null channel share.
type nullFabric struct {
	mu    sync.Mutex
	wires map[wireKey]*wire
}

func (f *nullFabric) wire(k wireKey) *wire {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.wires[k]
	if w == nil {
		// Both queues are sized to the number of buffers in flight, not to
		// the number of sends: a full wire is the driver's flow control.
		w = &wire{data: make(chan []byte, nullWireDepth), free: make(chan []byte, nullWireDepth)}
		f.wires[k] = w
	}
	return w
}

// installNullDrivers registers the three null drivers and returns the
// function that unregisters them.
func installNullDrivers() (remove func(), err error) {
	fabric := &nullFabric{wires: map[wireKey]*wire{}}
	var installed []string
	remove = func() {
		for _, name := range installed {
			core.UnregisterDriver(name)
		}
	}
	for _, policy := range nullPolicies {
		err := core.RegisterDriver(core.DriverDef{
			Name:  nullDriverName(policy),
			Probe: func(*simnet.Node, int) error { return nil },
			New: func(node *simnet.Node, adapter, chanID int) (core.PMM, error) {
				p := &nullPMM{fabric: fabric, chanID: chanID}
				p.tm = &nullTM{policy: policy}
				return p, nil
			},
		})
		if err != nil {
			remove()
			return nil, err
		}
		installed = append(installed, nullDriverName(policy))
	}
	return remove, nil
}

var nullLink = model.Link{Name: "null"} // zero fixed cost, infinitely fast

type nullPMM struct {
	fabric *nullFabric
	chanID int
	tm     *nullTM
}

// nullConn is the per-connection state, partitioned by direction as the
// driver contract requires.
type nullConn struct {
	tx, rx *wire
}

func (p *nullPMM) Name() string                                             { return "null" }
func (p *nullPMM) Select(n int, sm core.SendMode, rm core.RecvMode) core.TM { return p.tm }
func (p *nullPMM) TMs() []core.TM                                           { return []core.TM{p.tm} }
func (p *nullPMM) Link(n int) model.Link                                    { return nullLink }
func (p *nullPMM) Connect(cs *core.ConnState) error                         { return nil }
func (p *nullPMM) PreConnect(cs *core.ConnState) error {
	cs.Priv = &nullConn{
		tx: p.fabric.wire(wireKey{p.chanID, cs.Local(), cs.Remote()}),
		rx: p.fabric.wire(wireKey{p.chanID, cs.Remote(), cs.Local()}),
	}
	return nil
}

type nullTM struct{ policy string }

func (t *nullTM) Name() string          { return "null-" + t.policy }
func (t *nullTM) Link(n int) model.Link { return nullLink }

func (t *nullTM) NewBMM(cs *core.ConnState) core.BMM {
	switch t.policy {
	case "aggr":
		return core.NewAggregatingBMM(t, cs)
	case "static":
		return core.NewStaticCopyBMM(t, cs)
	}
	return core.NewEagerBMM(t, cs)
}

func (t *nullTM) StaticSize() int {
	if t.policy == "static" {
		return nullStaticSize
	}
	return 0
}

func (t *nullTM) SendBuffer(a *vclock.Actor, cs *core.ConnState, data []byte) error {
	if err := cs.Announce(); err != nil {
		return err
	}
	cs.Priv.(*nullConn).tx.data <- data
	return nil
}

func (t *nullTM) SendBufferGroup(a *vclock.Actor, cs *core.ConnState, group [][]byte) error {
	for _, g := range group {
		if err := t.SendBuffer(a, cs, g); err != nil {
			return err
		}
	}
	return nil
}

func (t *nullTM) ReceiveBuffer(a *vclock.Actor, cs *core.ConnState, dst []byte) error {
	b := <-cs.Priv.(*nullConn).rx.data
	if len(b) != len(dst) {
		return fmt.Errorf("null: asymmetric block: got %d bytes, want %d", len(b), len(dst))
	}
	copy(dst, b)
	return nil
}

func (t *nullTM) ReceiveSubBufferGroup(a *vclock.Actor, cs *core.ConnState, dsts [][]byte) error {
	for _, d := range dsts {
		if err := t.ReceiveBuffer(a, cs, d); err != nil {
			return err
		}
	}
	return nil
}

func (t *nullTM) ObtainStaticBuffer(a *vclock.Actor, cs *core.ConnState) ([]byte, error) {
	if t.policy != "static" {
		return nil, core.ErrNoStatic
	}
	select {
	case b := <-cs.Priv.(*nullConn).tx.free:
		return b[:nullStaticSize], nil
	default:
		return make([]byte, nullStaticSize), nil
	}
}

func (t *nullTM) ReceiveStaticBuffer(a *vclock.Actor, cs *core.ConnState) ([]byte, error) {
	if t.policy != "static" {
		return nil, core.ErrNoStatic
	}
	return <-cs.Priv.(*nullConn).rx.data, nil
}

// ReleaseStaticBuffer recycles a received buffer onto its wire's free
// list, where the sending side's ObtainStaticBuffer finds it.
func (t *nullTM) ReleaseStaticBuffer(a *vclock.Actor, cs *core.ConnState, buf []byte) error {
	if t.policy != "static" {
		return core.ErrNoStatic
	}
	select {
	case cs.Priv.(*nullConn).rx.free <- buf[:cap(buf)]:
	default: // free list full: let the collector have it
	}
	return nil
}
