package bench

import (
	"fmt"

	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/rdma"
	"madeleine2/internal/sbp"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/via"
)

// TwoNodes builds a fresh two-node session with adapters for every driver
// and a channel on the requested one — the §5.1 testbed (a pair of dual
// PII-450 nodes on the interconnect under test). The observer is installed
// before the channel is created, so every layer of the message path
// reports into it; nil is the uninstrumented fast path.
func TwoNodes(driver string, obs *core.Observer) (*core.Session, map[int]*core.Channel, error) {
	w := simnet.NewWorld(2)
	for i := 0; i < 2; i++ {
		w.Node(i).AddAdapter(bip.Network)
		w.Node(i).AddAdapter(sisci.Network)
		w.Node(i).AddAdapter(tcpnet.Network)
		w.Node(i).AddAdapter(via.Network)
		w.Node(i).AddAdapter(sbp.Network)
		w.Node(i).AddAdapter(rdma.Network)
	}
	sess := core.NewSession(w)
	sess.SetObserver(obs)
	chans, err := sess.NewChannel(core.ChannelSpec{Name: "bench-" + driver, Driver: driver})
	if err != nil {
		return nil, nil, err
	}
	return sess, chans, nil
}

// TwoNodesRails builds a two-node session whose nodes carry `rails`
// adapters on the driver's network, and opens a multi-rail channel
// striping across all of them at the given stripe size (0 selects the
// default). One rail is the degenerate baseline: same code path, no
// fan-out — which is exactly what the rail-scaling figures compare
// against.
func TwoNodesRails(driver string, rails, stripe int, obs *core.Observer) (*core.Session, map[int]*core.Channel, error) {
	net, err := core.NetworkOf(driver)
	if err != nil {
		return nil, nil, err
	}
	w := simnet.NewWorld(2)
	for i := 0; i < 2; i++ {
		for j := 0; j < rails; j++ {
			w.Node(i).AddAdapter(net)
		}
	}
	sess := core.NewSession(w)
	sess.SetObserver(obs)
	chans, err := sess.NewChannel(core.ChannelSpec{
		Name:       fmt.Sprintf("bench-%s-x%d", driver, rails),
		Rails:      railSpecs(driver, rails),
		StripeSize: stripe,
	})
	if err != nil {
		return nil, nil, err
	}
	return sess, chans, nil
}

// railSpecs lists `rails` adapters of one driver, in adapter order.
func railSpecs(driver string, rails int) []core.RailSpec {
	specs := make([]core.RailSpec, rails)
	for i := range specs {
		specs[i] = core.RailSpec{Driver: driver, Adapter: i}
	}
	return specs
}

// TwoClusters builds the §6.2 testbed: an SCI cluster {0,1,2} and a
// Myrinet cluster {2,3,4} sharing gateway node 2, plus Fast Ethernet on
// every node for the acknowledgment path — `rails` adapters per fabric
// membership, so the forwarding experiments can stripe each segment.
func TwoClusters(rails int) *core.Session {
	w := simnet.NewWorld(5)
	for j := 0; j < rails; j++ {
		for _, r := range []int{0, 1, 2} {
			w.Node(r).AddAdapter(sisci.Network)
		}
		for _, r := range []int{2, 3, 4} {
			w.Node(r).AddAdapter(bip.Network)
		}
		for r := 0; r < 5; r++ {
			w.Node(r).AddAdapter(tcpnet.Network)
		}
	}
	return core.NewSession(w)
}

// HetVC creates the SCI+Myrinet virtual channel of the forwarding
// experiments on a fresh two-cluster session. Each segment stripes across
// `rails` same-driver adapters (one rail is the plain single-adapter
// channel). The FaultPlan (nil for a clean fabric) arms every adapter
// before any channel exists; reliable selects the Generic TM's reliable
// mode, which survives it. The observer is installed before the segments
// are built, so the gateway pipeline, the segments' core channels and
// their TMs all share its sink.
func HetVC(name string, mtu, rails, stripe int, plan *simnet.FaultPlan, reliable bool, obs *core.Observer, mutate func(*fwd.Spec)) (map[int]*fwd.VC, error) {
	sess := TwoClusters(rails)
	sess.SetObserver(obs)
	for _, a := range sess.World().Adapters() {
		a.SetFaults(plan)
	}
	segment := func(driver string, nodes []int) core.ChannelSpec {
		if rails <= 1 {
			return core.ChannelSpec{Driver: driver, Nodes: nodes}
		}
		return core.ChannelSpec{Nodes: nodes, Rails: railSpecs(driver, rails), StripeSize: stripe}
	}
	spec := fwd.Spec{
		Name:     name,
		MTU:      mtu,
		Reliable: reliable,
		Segments: []core.ChannelSpec{
			segment("sisci", []int{0, 1, 2}),
			segment("bip", []int{2, 3, 4}),
		},
	}
	if mutate != nil {
		mutate(&spec)
	}
	return fwd.New(sess, spec)
}

// CloseVCs shuts a virtual channel set down.
func CloseVCs(vcs map[int]*fwd.VC) {
	for _, v := range vcs {
		v.Close()
	}
}

// uniqueName disambiguates channels created within one process run.
var nameSeq int

// NextName returns a unique bench channel name.
func NextName(prefix string) string {
	nameSeq++
	return fmt.Sprintf("%s-%d", prefix, nameSeq)
}
