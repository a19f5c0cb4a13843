// Package tcpnet provides the TCP/Fast-Ethernet substrate: reliable,
// ordered, message-framed byte transport between nodes with kernel-stack
// costs. The paper's TCP PMM drives it, the Nexus comparison (Fig. 7) runs
// over it, and the forwarding experiment's acknowledgment path uses it
// (§6.2). Framing is message-oriented, which is exactly how Madeleine's
// TCP protocol module uses a socket (one write/read per buffer).
package tcpnet

import (
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Network is the fabric name Ethernet adapters attach to.
const Network = "ethernet"

// Endpoint is one node's TCP stack instance on an Ethernet adapter.
type Endpoint struct {
	adapter *simnet.Adapter
}

// Attach opens the TCP substrate on the idx-th Ethernet adapter of node n.
func Attach(n *simnet.Node, idx int) (*Endpoint, error) {
	a, err := n.Adapter(Network, idx)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: %w", err)
	}
	return &Endpoint{adapter: a}, nil
}

// Node reports the rank of the endpoint's host.
func (e *Endpoint) Node() int { return e.adapter.Node().ID() }

// Send transmits one framed message to (dst, port). The kernel copies the
// payload, so the caller's buffer is immediately reusable.
func (e *Endpoint) Send(a *vclock.Actor, dst, port int, data []byte) error {
	return e.Sendv(a, dst, port, data)
}

// Sendv is the gathering Send (writev): the parts leave as one framed
// message, gathered by the kernel's own copy, at one message's cost.
func (e *Endpoint) Sendv(a *vclock.Actor, dst, port int, parts ...[]byte) error {
	pa, err := e.adapter.Peer(dst, e.adapter.Index())
	if err != nil {
		return fmt.Errorf("tcpnet: %w", err)
	}
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	// The kernel stack's per-message processing occupies the send path in
	// addition to the wire time — that is what message aggregation (one
	// send per buffer group) amortizes.
	start, _ := e.adapter.TxEngine().Acquire(a.Now(),
		model.TCPFE.ByteTime(n)+model.TCPFE.Fixed/2)
	arrive := start + model.TCPFE.Time(n)
	a.Advance(model.TCPFE.Fixed / 4) // syscall + kernel copy on the sender
	e.adapter.Deliver(pa, port, simnet.Packet{Inject: int64(start), Arrive: int64(arrive)}, parts...)
	return nil
}

// Recv blocks for the next framed message from (src, port): Inbox.Recv
// on the pair's inbox looked up by this call.
func (e *Endpoint) Recv(a *vclock.Actor, src, port int) ([]byte, error) {
	return e.Inbox(src, port).Recv(a)
}

// Inbox is the receive side of one (src, port) pair, resolved once, so a
// reader that keeps it looks up nothing per message.
type Inbox struct{ l *simnet.RxLane }

// Inbox resolves the receive side of (src, port).
func (e *Endpoint) Inbox(src, port int) Inbox { return Inbox{e.adapter.RxLane(src, port)} }

// Recv blocks for the next framed message, synchronizes the actor's clock
// to its arrival, and returns the payload: the kernel's receive buffer,
// valid until Done or the next Recv on the pair.
func (in Inbox) Recv(a *vclock.Actor) ([]byte, error) {
	pkt, ok := in.l.Recv()
	if !ok {
		return nil, fmt.Errorf("tcpnet: connection closed")
	}
	a.Sync(vclock.Time(pkt.Arrive))
	return pkt.Data, nil
}

// Done gives the last payload Recv returned back to the kernel as soon as
// its reader has consumed it, so the next message can land in it even if
// it arrives before the next Recv.
func (in Inbox) Done() { in.l.Done() }
