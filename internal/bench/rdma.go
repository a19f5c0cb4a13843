package bench

import (
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/vclock"
)

// RDMAAnchorSize is the large-message size the rendezvous anchors quote.
const RDMAAnchorSize = 1 << 20

// RDMACrossover measures the one-sided RDMA substrate's eager/rendezvous
// split: a bandwidth sweep per forced transmission module plus the
// switched channel, and small-message latency on the switched channel vs
// the forced-eager one. The figure is not in the paper — Madeleine II
// predates the eager/rendezvous vocabulary — so the anchors quote the
// simnet model's own expectations: rendezvous pays an RTS/CTS round trip
// but skips both bounce-buffer copies, so it wins big messages by the
// copy bandwidth; eager wins small messages where the handshake dwarfs
// the copy; and the Switch module must track the better of the two,
// because that choice is exactly what it exists to make.
func RDMACrossover() (Result, error) {
	res := Result{
		ID:    "rdma",
		Title: "One-sided RDMA: eager vs rendezvous vs switched",
		Notes: fmt.Sprintf("crossover at %d B; anchors are model expectations, not paper values", model.RDMACrossover),
	}
	curves := make(map[string]Series)
	lat := make(map[string]map[int]vclock.Time)
	for _, drv := range []string{"rdma-eager", "rdma-rdv", "rdma"} {
		_, chans, err := TwoNodes(drv, nil)
		if err != nil {
			return res, err
		}
		bw, err := Sweep(drv, chans, 0, 1, BwSizes)
		if err != nil {
			return res, err
		}
		res.Series = append(res.Series, bw)
		curves[drv] = bw
		if drv == "rdma-rdv" {
			continue // rendezvous has no small-message claim to anchor
		}
		// Latency on a fresh channel: the eager ring returns credits in
		// batches, so per-iteration time is periodic in the credit batch
		// and the phase depends on prior traffic. A fresh channel plus an
		// iteration count spanning whole batches measures the steady mean.
		_, fresh, err := TwoNodes(drv, nil)
		if err != nil {
			return res, err
		}
		lat[drv] = make(map[int]vclock.Time)
		for _, n := range []int{4, 64, 256} {
			t, err := PingPong(fresh, 0, 1, n, 2+2*model.RDMAEagerSlots)
			if err != nil {
				return res, err
			}
			lat[drv][n] = t
		}
	}

	eager1M, okE := curves["rdma-eager"].At(RDMAAnchorSize)
	rdv1M, okR := curves["rdma-rdv"].At(RDMAAnchorSize)
	if okE && okR {
		res.Anchors = append(res.Anchors, Anchor{
			Name:     "rendezvous/eager speedup at 1 MB",
			Paper:    1.9, // the destination's registration is kept, not paid per block
			Measured: float64(eager1M.OneWay) / float64(rdv1M.OneWay),
			Unit:     "x",
		})
	}
	for _, n := range []int{4, 64, 256} {
		res.Anchors = append(res.Anchors, Anchor{
			Name:     fmt.Sprintf("switched/eager latency at %d B", n),
			Paper:    1,
			Measured: float64(lat["rdma"][n]) / float64(lat["rdma-eager"][n]),
			Unit:     "x",
		})
	}
	worst := 0.0
	for _, size := range BwSizes {
		sw, ok1 := curves["rdma"].At(size)
		eg, ok2 := curves["rdma-eager"].At(size)
		rv, ok3 := curves["rdma-rdv"].At(size)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		best := eg.OneWay
		if rv.OneWay < best {
			best = rv.OneWay
		}
		if r := float64(sw.OneWay) / float64(best); r > worst {
			worst = r
		}
	}
	res.Anchors = append(res.Anchors, Anchor{
		Name:     "switched vs best-of-two, worst over sweep",
		Paper:    1,
		Measured: worst,
		Unit:     "x",
	})
	return res, nil
}
