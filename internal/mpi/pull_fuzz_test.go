package mpi

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"madeleine2/internal/core"
)

// fuzzMaxPayload bounds the payload size an input may declare, so one run
// stays small; pull allocates what the envelope declares.
const fuzzMaxPayload = 4096

// FuzzMatcherPull feeds arbitrary ch_mad envelopes and segment tables to
// matcher.pull over a real tcp channel. The sender ships exactly the
// blocks a faithful decoder reads before it accepts or rejects the
// message (a receiver waiting for a block nobody sent would wait forever,
// which is not what this target probes). Oracle: no panic; the message is
// delivered byte-exact when the model accepts it and refused with an mpi
// error when it does not; pull's allocation is linear in what the
// envelope declares; and the session is at rest afterwards.
func FuzzMatcherPull(f *testing.F) {
	// Seeds: TestMalformedSegmentTable's three shapes — a table
	// overflowing its payload, a table short of it, a well-formed message.
	seed := func(wire, n int, table []int) {
		env := putHdr(make([]byte, msgHdrSize), wire, n, len(table))
		tb := make([]byte, 4*len(table))
		for i, k := range table {
			binary.LittleEndian.PutUint32(tb[4*i:], uint32(k))
		}
		f.Add(env, tb, []byte("fill"))
	}
	seed(3, 8, []int{8, 8})
	seed(3, 16, []int{8})
	seed(3, len("well-formed"), nil)

	f.Fuzz(func(t *testing.T, envIn, table, fill []byte) {
		env := make([]byte, msgHdrSize)
		copy(env, envIn)
		n := int(binary.LittleEndian.Uint32(env[4:]) % (fuzzMaxPayload + 1))
		binary.LittleEndian.PutUint32(env[4:], uint32(n))
		segs := int(binary.LittleEndian.Uint32(env[8:]))
		data := make([]byte, n)
		for i := range data {
			if len(fill) > 0 {
				data[i] = fill[i%len(fill)]
			}
		}

		// The model decoder: the blocks it reads, and whether it accepts.
		type block struct {
			b       []byte
			express bool
		}
		plan := []block{{env, true}}
		ok := true
		switch {
		case segs > n:
			ok = false
		case segs > 0:
			tb := make([]byte, 4*segs)
			copy(tb, table)
			plan = append(plan, block{tb, true})
			off := 0
			for i := 0; i < segs && ok; i++ {
				k := int(binary.LittleEndian.Uint32(tb[4*i:]))
				if ok = off+k <= n; ok {
					plan = append(plan, block{data[off : off+k], false})
					off += k
				}
			}
			ok = ok && off == n
		case n > 0:
			plan = append(plan, block{data, false})
		}

		cs := comms(t, 2, "tcp")
		err := cs[1].m.ch.Send(cs[1].actor, cs[1].nodes[0], func(conn *core.Connection) error {
			for _, b := range plan {
				sm, rm := core.SendCheaper, core.ReceiveCheaper
				if b.express {
					sm, rm = core.SendSafer, core.ReceiveExpress
				}
				if err := conn.Pack(b.b, sm, rm); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("send: %v", err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u, err := cs[0].m.pull(cs[0].actor)
		runtime.ReadMemStats(&after)

		switch {
		case ok && err != nil:
			t.Fatalf("envelope %x, %d segments: well-formed message refused: %v", env, segs, err)
		case !ok && err == nil:
			t.Fatalf("envelope %x, %d segments: malformed message delivered", env, segs)
		case err != nil && !strings.HasPrefix(err.Error(), "mpi: "):
			t.Fatalf("envelope %x: refused by the transport, not the decoder: %v", env, err)
		case ok && (u.node != 1 || u.wireTag != int(int32(binary.LittleEndian.Uint32(env))) || !bytes.Equal(u.data, data)):
			t.Fatalf("envelope %x: delivered node %d tag %d %d bytes, want node 1 and the sent payload", env, u.node, u.wireTag, len(u.data))
		}
		// The payload and table, plus the receive BMM's list of destination
		// blocks (a slice header per segment, grown by append), plus slack
		// for what the fuzzing engine allocates meanwhile: TotalAlloc is
		// process-wide. A table sized by an unchecked count is gigabytes.
		limit := uint64(n) + 64<<10
		if segs <= n {
			limit += (4 + 128) * uint64(segs)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("envelope %x: pull allocated %d bytes, over %d for %d declared", env, got, limit, n)
		}
		if err := cs[0].m.ch.Session().CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}
