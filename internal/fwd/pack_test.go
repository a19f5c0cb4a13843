package fwd

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/vclock"
)

const packMTU = 256

// packBlock is one Pack call of a message under test.
type packBlock struct {
	n       int
	express bool
	sm      core.SendMode
}

// refChunk is what one delivered packet must look like.
type refChunk struct {
	n           int
	first, last bool
}

// refFragments is the reference model of the Generic TM's fragmentation:
// concatenate the blocks, cut a packet whenever strictly more than one MTU
// is pending, and end the message with the pending bytes — a header-only
// packet when every block was empty. Modes play no part: the TM sees
// buffers, and an express block flushes nothing. A message with no block
// at all is no message.
func refFragments(blocks []packBlock, mtu int) []refChunk {
	if len(blocks) == 0 {
		return nil
	}
	var out []refChunk
	pending := 0
	for _, b := range blocks {
		pending += b.n
		for pending > mtu {
			out = append(out, refChunk{n: mtu})
			pending -= mtu
		}
	}
	out = append(out, refChunk{n: pending})
	out[0].first, out[len(out)-1].last = true, true
	return out
}

// checkFragmentation sends blocks as one message from node 0 to node 3,
// across the gateway, and compares what lands in the destination's stream
// — packet by packet, below Unpack — with the reference model.
func checkFragmentation(t testing.TB, rel bool, blocks []packBlock) {
	t.Helper()
	spec := sciMyriSpec("frag", packMTU)
	spec.Reliable = rel
	vcs := newVC(t, twoClusters(t), spec)

	want := refFragments(blocks, packMTU)
	var sent []byte
	conn, err := vcs[0].BeginPacking(vclock.NewActor("s"), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		data := pattern(b.n, byte(31*i+b.n))
		sent = append(sent, data...)
		rm := core.ReceiveCheaper
		if b.express {
			rm = core.ReceiveExpress
		}
		if err := conn.Pack(data, b.sm, rm); err != nil {
			t.Fatalf("Pack of block %d (%d bytes): %v", i, b.n, err)
		}
	}
	err = conn.EndPacking()
	if len(want) == 0 {
		if !errors.Is(err, core.ErrEmptyMessage) {
			t.Fatalf("EndPacking of an empty message: %v, want ErrEmptyMessage", err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}

	// Core announced the message to rank 3 at the first send; its packets
	// are in the stream of its origin, rank 0, the first flagged first.
	var got []byte
	q := vcs[3].streams[0].q
	for i, w := range want {
		ck, ok := q.Pop()
		if !ok {
			t.Fatalf("stream closed after %d of %d packets", i, len(want))
		}
		if ck.corrupt || len(ck.data) != w.n || ck.first != w.first || ck.last != w.last {
			t.Fatalf("blocks %+v: packet %d of %d is {len %d first %v last %v corrupt %v}, want %+v",
				blocks, i, len(want), len(ck.data), ck.first, ck.last, ck.corrupt, w)
		}
		got = append(got, ck.data...)
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("blocks %+v: %d packets beyond the reference's %d", blocks, n, len(want))
	}
	if !bytes.Equal(got, sent) {
		t.Fatalf("blocks %+v: the delivered bytes differ from the packed ones", blocks)
	}
}

// packSizes are the block lengths around every fragmentation boundary.
var packSizes = []int{0, 1, packMTU - 1, packMTU, packMTU + 1, 3 * packMTU}

// TestPackFragmentationMatchesReference pins where the Generic TM cuts
// packets, fragmenting from the caller's block instead of a staged copy of
// the whole message: every boundary size alone and after a partial tail,
// exact multiples as the last block, express blocks mid-message and at its
// end, messages of empty blocks, then seeded random mixes, in both modes.
func TestPackFragmentationMatchesReference(t *testing.T) {
	var seqs [][]packBlock
	for _, n := range packSizes {
		for _, express := range []bool{false, true} {
			seqs = append(seqs,
				[]packBlock{{n: n, express: express}},
				[]packBlock{{n: 7}, {n: n, express: express}},
				[]packBlock{{n: packMTU - 1}, {n: n, express: express}, {n: 1}},
				[]packBlock{{n: 8, express: true}, {n: n}, {n: packMTU, express: express}})
		}
	}
	seqs = append(seqs,
		[]packBlock{{n: packMTU}, {n: 3 * packMTU}},
		[]packBlock{{n: 1}, {n: packMTU - 1}, {n: 2 * packMTU}},
		[]packBlock{{n: packMTU}, {n: packMTU}, {n: 0, express: true}},
		[]packBlock{{n: 0}, {n: 0, express: true}})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 24; i++ {
		seq := make([]packBlock, 1+rng.Intn(6))
		for j := range seq {
			n := packSizes[rng.Intn(len(packSizes))]
			if rng.Intn(3) == 0 {
				n = rng.Intn(4 * packMTU)
			}
			seq[j] = packBlock{n: n, express: rng.Intn(3) == 0, sm: core.SendMode(rng.Intn(3))}
		}
		seqs = append(seqs, seq)
	}
	for _, rel := range []bool{false, true} {
		for _, seq := range seqs {
			checkFragmentation(t, rel, seq)
		}
	}
}

// FuzzPackFragmentation feeds the same oracle from fuzz bytes: two per
// block, a length (boundary sizes and arbitrary ones) and its modes.
func FuzzPackFragmentation(f *testing.F) {
	f.Add([]byte{3, 0}, false)
	f.Add([]byte{2, 0, 1, 1, 5, 0}, true)
	f.Add([]byte{200, 1, 4, 0, 3, 1}, false)
	f.Fuzz(func(t *testing.T, b []byte, rel bool) {
		var seq []packBlock
		for ; len(b) >= 2 && len(seq) < 8; b = b[2:] {
			n := int(b[0]) * 5
			if int(b[0]) < len(packSizes) {
				n = packSizes[b[0]]
			}
			seq = append(seq, packBlock{n: n, express: b[1]&1 != 0, sm: core.SendMode((b[1] >> 1) % 3)})
		}
		checkFragmentation(t, rel, seq)
	})
}

// TestPackDoesNotAliasCaller overwrites each block the moment Pack
// returns, in every send mode. send_SAFER and send_CHEAPER deliver the
// bytes as they were at Pack: full fragments left from the caller's memory,
// but every send had completed by then, and the tail is staged.
// send_LATER follows Table 1: the BMM sends the block at EndPacking, so
// the bytes as they are then are delivered.
func TestPackDoesNotAliasCaller(t *testing.T) {
	for _, rel := range []bool{false, true} {
		spec := sciMyriSpec("alias", packMTU)
		spec.Reliable = rel
		vcs := newVC(t, twoClusters(t), spec)
		for _, sm := range []core.SendMode{core.SendSafer, core.SendLater, core.SendCheaper} {
			sizes := []int{3*packMTU + 17, packMTU, 5, 2 * packMTU}
			var want []byte
			conn, err := vcs[0].BeginPacking(vclock.NewActor("s"), 3)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range sizes {
				block := pattern(n, byte(i))
				if err := conn.Pack(block, sm, core.ReceiveCheaper); err != nil {
					t.Fatal(err)
				}
				if sm != core.SendLater {
					want = append(want, block...)
				}
				for j := range block {
					block[j] = 0xEE
				}
				if sm == core.SendLater {
					want = append(want, block...)
				}
			}
			if err := conn.EndPacking(); err != nil {
				t.Fatal(err)
			}
			rc, err := vcs[3].BeginUnpacking(vclock.NewActor("r"))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if err := rc.Unpack(got, sm, core.ReceiveCheaper); err != nil {
				t.Fatal(err)
			}
			if err := rc.EndUnpacking(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("reliable=%v send mode %v: the receiver did not see the bytes Table 1 promises", rel, sm)
			}
		}
	}
}
