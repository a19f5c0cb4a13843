//go:build !race

package coll_test

import (
	"runtime"
	"testing"

	"madeleine2/internal/coll"
)

// nopExec runs no transfer: what a call allocates is Ops' own.
type nopExec struct{}

func (nopExec) Run(string, coll.Plan) error      { return nil }
func (nopExec) Reject(_ string, err error) error { return err }

// TestScatterRelayAllocs gates Scatter's relay staging: a rank that
// forwards part of root's blocks stages them in the rank's scratch buffer,
// so its second Scatter allocates no n*blk buffer.
func TestScatterRelayAllocs(t *testing.T) {
	const n, blk = 8, 64 << 10
	topo := coll.SingleCluster(n)
	relay := 1
	for relay < n && coll.ScatterSched(topo, relay, 0, blk, coll.Auto).NumSends() == 0 {
		relay++
	}
	if relay == n {
		t.Fatal("no relay rank in an 8-rank scatter tree")
	}
	ops := coll.NewOps(nopExec{}, topo, relay, coll.Auto)
	out := make([]byte, blk)
	if err := ops.Scatter(0, nil, out); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ops.Scatter(0, nil, out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= n*blk {
		t.Errorf("relay rank %d's second Scatter allocated %d bytes, want less than one %d-byte stage", relay, got, n*blk)
	}
}
