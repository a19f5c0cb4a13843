// Server: the paper's closing direction (§7) in action — a service thread
// that interacts with the network through Marcel's adaptive
// polling/interruption mechanism, on a cluster built from a PM2-style
// session description file. Compare the three policies' added latency and
// burnt CPU for the same request stream.
package main

import (
	"fmt"
	"log"

	"madeleine2"
	"madeleine2/internal/config"
	"madeleine2/internal/core"
	"madeleine2/internal/marcel"
)

const sessionFile = `
# a two-node SCI service deployment
nodes 2
adapter sci *
channel rpc sisci
`

const (
	requests = 12
	thinkGap = 180 // µs between client requests: the server mostly waits
)

func main() {
	cfg, err := config.ParseString(sessionFile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deploying from session description: %d nodes, %d channel(s)\n\n",
		cfg.Nodes, len(cfg.Channels))

	for _, pol := range []marcel.Policy{marcel.Polling, marcel.Interrupt, marcel.Adaptive} {
		st, done := serve(cfg, pol)
		fmt.Printf("policy %-9s  served %2d requests by t=%v\n", pol, st.Receives, done)
		fmt.Printf("  added latency %6.1f µs/req   CPU burnt waiting %6.1f µs/req   interrupts %d\n",
			st.AddedLat.Microseconds()/requests, st.CPUBusy.Microseconds()/requests, st.Interrupts)
	}
	fmt.Println("\nok: adaptive keeps interrupt-level CPU usage with bounded spin cost")
}

// serve replays the same request stream against one policy.
func serve(cfg *config.Config, pol marcel.Policy) (marcel.Stats, madeleine2.Time) {
	cl, err := cfg.Build()
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	chans := cl.Channels["rpc"]

	// The client: sparse requests.
	go func() {
		a := madeleine2.NewActor("client")
		for i := 0; i < requests; i++ {
			a.Advance(madeleine2.Micros(thinkGap))
			conn, err := chans[0].BeginPacking(a, 1)
			if err != nil {
				log.Fatal(err)
			}
			if err := conn.Pack([]byte{byte(i)}, core.SendCheaper, core.ReceiveExpress); err != nil {
				log.Fatal(err)
			}
			if err := conn.EndPacking(); err != nil {
				log.Fatal(err)
			}
		}
	}()

	// The server thread under the policy.
	l := marcel.NewListener(chans[1], pol, marcel.Config{})
	srv := madeleine2.NewActor("server")
	for i := 0; i < requests; i++ {
		req := make([]byte, 1)
		err := l.Serve(srv, func(conn *marcel.Conn) error {
			return conn.Unpack(req, core.SendCheaper, core.ReceiveExpress)
		})
		if err != nil {
			log.Fatal(err)
		}
		srv.Advance(madeleine2.Micros(10)) // handle the request
	}
	return l.Stats(), srv.Now()
}
