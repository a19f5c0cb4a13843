// Package overmpi is the "Madeleine II on top of MPI" port the paper
// mentions in §5.3 ("Madeleine II has also been ported (quite
// straightforwardly) on top of MPI"): a protocol module whose wire is an
// MPI communicator — usually this repository's own ch_mad device, closing
// the loop the original project used for portability bootstrap.
//
// The module registers itself under a caller-chosen driver name through
// core.RegisterDriver, demonstrating the external-module mechanism. Each
// Madeleine channel multiplexes over one MPI tag.
//
// It is the worked example of core.DriverDef's contract: one dynamic-buffer
// mover behind core.NewDynamicTM, and no Priv at all — the communicator
// does its own locking, so there is no per-connection state to partition
// by direction.
package overmpi

import (
	"fmt"

	"madeleine2/internal/core"
	"madeleine2/internal/model"
	"madeleine2/internal/mpi"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Install registers the driver under the given name, backed by the given
// per-node-rank communicators. All communicators must span the same node
// set. Call core.UnregisterDriver(name) to remove it.
func Install(name string, comms map[int]*mpi.Comm) error {
	if len(comms) == 0 {
		return fmt.Errorf("overmpi: no communicators")
	}
	return core.RegisterDriver(core.DriverDef{
		Name: name,
		Probe: func(node *simnet.Node, adapter int) error {
			if comms[node.ID()] == nil {
				return fmt.Errorf("overmpi: node %d has no communicator", node.ID())
			}
			return nil
		},
		New: func(node *simnet.Node, adapter, chanID int) (core.PMM, error) {
			c := comms[node.ID()]
			if c == nil {
				return nil, fmt.Errorf("overmpi: node %d has no communicator", node.ID())
			}
			return newPMM(c, chanID), nil
		},
	})
}

// tagBase is the first MPI tag used for Madeleine channels over MPI: a
// dedicated tag region keeps Madeleine traffic away from typical
// application MPI tags (still within mpi.MaxTag).
const tagBase = 30000

func newPMM(c *mpi.Comm, chanID int) *pmm {
	p := &pmm{comm: c, tag: tagBase + chanID}
	p.tm = core.NewDynamicTM(&mover{p})
	return p
}

// pmm is the MPI-backed protocol module: one dynamic transmission module
// whose buffers are MPI messages.
type pmm struct {
	comm *mpi.Comm
	tag  int
	tm   core.TM
}

func (p *pmm) Name() string                                             { return "overmpi" }
func (p *pmm) Select(n int, sm core.SendMode, rm core.RecvMode) core.TM { return p.tm }
func (p *pmm) TMs() []core.TM                                           { return []core.TM{p.tm} }
func (p *pmm) PreConnect(cs *core.ConnState) error                      { return nil }
func (p *pmm) Connect(cs *core.ConnState) error                         { return nil }

// mover is the module's one transfer method: a buffer is an MPI message.
type mover struct{ p *pmm }

func (t *mover) Name() string          { return "overmpi" }
func (t *mover) Link(n int) model.Link { return t.p.comm.Link(n) }

func (t *mover) rankOf(node int) (int, error) {
	r, ok := t.p.comm.RankOfNode(node)
	if !ok {
		return 0, fmt.Errorf("overmpi: node %d is not in the communicator", node)
	}
	return r, nil
}

func (t *mover) SendBuffer(a *vclock.Actor, cs *core.ConnState, data []byte) error {
	dst, err := t.rankOf(cs.Remote())
	if err != nil {
		return err
	}
	return t.p.comm.SendAs(a, dst, t.p.tag, data)
}

func (t *mover) ReceiveBuffer(a *vclock.Actor, cs *core.ConnState, dst []byte) error {
	src, err := t.rankOf(cs.Remote())
	if err != nil {
		return err
	}
	st, err := t.p.comm.RecvAs(a, src, t.p.tag, dst)
	if err != nil {
		return err
	}
	if st.Count != len(dst) {
		return fmt.Errorf("overmpi: asymmetric block: got %d bytes, want %d", st.Count, len(dst))
	}
	return nil
}
