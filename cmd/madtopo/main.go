// Command madtopo loads a cluster/session description file (see
// internal/config), builds the simulated cluster, prints the topology, and
// runs a smoke message over every declared channel and virtual channel.
//
// Usage:
//
//	madtopo -config cluster.cfg
//	madtopo          # built-in §6.2 testbed description
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"madeleine2/internal/config"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/vclock"
)

// defaultConfig is the paper's §6.2 testbed.
const defaultConfig = `
# CLUSTER 2000 §6.2 testbed: SCI cluster {0,1,2}, Myrinet cluster {2,3,4},
# gateway node 2, Fast Ethernet everywhere.
nodes 5
adapter sci 0 1 2
adapter myrinet 2 3 4
adapter ethernet *
channel ctrl tcp
channel san sisci nodes=0,1,2
vchannel het mtu=16k
  segment sisci nodes=0,1,2
  segment bip nodes=2,3,4
end
`

func main() {
	path := flag.String("config", "", "session description file (default: the built-in §6.2 testbed)")
	flag.Parse()

	text := defaultConfig
	if *path != "" {
		b, err := os.ReadFile(*path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "madtopo: %v\n", err)
			os.Exit(1)
		}
		text = string(b)
	}
	cfg, err := config.ParseString(text)
	if err != nil {
		fmt.Fprintf(os.Stderr, "madtopo: %v\n", err)
		os.Exit(1)
	}
	cl, err := cfg.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "madtopo: %v\n", err)
		os.Exit(1)
	}
	defer cl.Close()

	fmt.Printf("cluster: %d nodes\n", cfg.Nodes)
	for r := 0; r < cfg.Nodes; r++ {
		nets := cl.World.Node(r).Networks()
		sort.Strings(nets)
		fmt.Printf("  node %d: %v\n", r, nets)
	}

	var names []string
	for name := range cl.Channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		chans := cl.Channels[name]
		var members []int
		for r := range chans {
			members = append(members, r)
		}
		sort.Ints(members)
		a, b := members[0], members[1]
		lat, err := smoke(chans[a], chans[b], a, b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "madtopo: channel %q: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("channel %-8s %-6s members %v  smoke %d→%d: %v one-way\n",
			name, chans[a].PMMName(), members, a, b, lat)
		fmt.Printf("  stats(%d): %s\n", a, chans[a].Stats())
	}

	var vnames []string
	for name := range cl.Virtual {
		vnames = append(vnames, name)
	}
	sort.Strings(vnames)
	for _, name := range vnames {
		vcs := cl.Virtual[name]
		var members []int
		for r := range vcs {
			members = append(members, r)
		}
		sort.Ints(members)
		src, dst := members[0], members[len(members)-1]
		lat, err := vcSmoke(vcs, src, dst)
		if err != nil {
			fmt.Fprintf(os.Stderr, "madtopo: vchannel %q: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("vchannel %-7s members %v  smoke %d→%d (forwarded): %v one-way\n",
			name, members, src, dst, lat)
	}
}

// vcSmoke ships one small message across a virtual channel.
func vcSmoke(vcs map[int]*fwd.VC, src, dst int) (vclock.Time, error) {
	s, r := vclock.NewActor("vsmoke-s"), vclock.NewActor("vsmoke-r")
	errc := make(chan error, 1)
	go func() {
		conn, err := vcs[src].BeginPacking(s, dst)
		if err != nil {
			errc <- err
			return
		}
		if err := conn.Pack([]byte("smoke"), core.SendCheaper, core.ReceiveCheaper); err != nil {
			errc <- err
			return
		}
		errc <- conn.EndPacking()
	}()
	conn, err := vcs[dst].BeginUnpacking(r)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 5)
	if err := conn.Unpack(buf, core.SendCheaper, core.ReceiveCheaper); err != nil {
		return 0, err
	}
	if err := conn.EndUnpacking(); err != nil {
		return 0, err
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	return r.Now(), nil
}

func smoke(sc, rc *core.Channel, src, dst int) (vclock.Time, error) {
	s, r := vclock.NewActor("smoke-s"), vclock.NewActor("smoke-r")
	errc := make(chan error, 1)
	go func() {
		errc <- sc.Send(s, dst, func(conn *core.Connection) error {
			return conn.Pack([]byte("smoke"), core.SendCheaper, core.ReceiveExpress)
		})
	}()
	buf := make([]byte, 5)
	err := rc.Recv(r, func(conn *core.Connection) error {
		return conn.Unpack(buf, core.SendCheaper, core.ReceiveExpress)
	})
	if err != nil {
		return 0, err
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	return r.Now(), nil
}
