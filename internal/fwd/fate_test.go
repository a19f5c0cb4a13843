package fwd

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"madeleine2/internal/core"
	"madeleine2/internal/metrics"
	"madeleine2/internal/vclock"
)

// fateWorld is the two-cluster testbed with the test standing in for node
// 0's sender: it puts hand-crafted packets on segment 0 with rawSend, so a
// receiver daemon on node 1 (an edge) or node 2 (the gateway) meets
// exactly the header and payload a row describes.
type fateWorld struct {
	t    *testing.T
	rel  bool
	sess *core.Session
	vcs  map[int]*VC
	a    *vclock.Actor
	lseq uint32
}

const fateMTU = 512

func newFateWorld(t *testing.T, rel bool) *fateWorld {
	sess := twoClusters(t)
	spec := sciMyriSpec("fate", fateMTU)
	spec.Reliable = rel
	return &fateWorld{t: t, rel: rel, sess: sess, vcs: newVC(t, sess, spec), a: vclock.NewActor("crafter")}
}

// good describes a well-formed single-packet message from node 0 to dst,
// with a fresh link sequence number.
func (w *fateWorld) good(dst int, seed byte) (header, []byte) {
	payload := pattern(64, seed)
	w.lseq++
	return header{
		Origin: 0, Dst: dst, Len: len(payload), Flags: flagFirst | flagLast,
		CRC: checksum(payload), LSeq: 1000 + w.lseq,
	}, payload
}

// encode serializes h in the mode's header format.
func (w *fateWorld) encode(h header) []byte {
	if w.rel {
		return h.encodeR(new(hdrBuf))
	}
	return h.encode(new(hdrBuf))
}

// send ships one packet to node 0's segment-0 neighbor. A reliable payload
// is padded to the MTU like sendReliable's; a nil payload makes the
// message header-only, for rows where the daemon stops reading there.
func (w *fateWorld) send(to int, hb, payload []byte) {
	w.t.Helper()
	if w.rel && payload != nil {
		payload = append(payload, make([]byte, fateMTU-len(payload))...)
	}
	if err := rawSend(w.vcs[0].chans[0], w.a, to, hb, payload); err != nil {
		w.t.Fatalf("inject: %v", err)
	}
}

// verdict pops the answer the neighbor sent for the last packet.
func (w *fateWorld) verdict(from int) string {
	w.t.Helper()
	vd, ok := w.vcs[0].rel.link(0, from).verdicts.Pop()
	switch {
	case !ok:
		w.t.Fatal("verdict queue closed")
	case vd.damaged:
		return "damaged"
	case vd.ok:
		return "ack"
	}
	return "nack"
}

// consume reads the next packet node 0 delivered to rank's handle off its
// stream: a crafted packet is no core message, so nothing announces it to
// the VC channel. With want nil the packet must be flagged corrupt;
// otherwise it must carry want.
func (w *fateWorld) consume(rank int, want []byte) {
	w.t.Helper()
	v := w.vcs[rank]
	ck, ok := v.streams[0].q.Pop()
	if !ok {
		w.t.Fatalf("rank %d: %v", rank, v.errOr(core.ErrClosed))
	}
	defer v.freeFrame(ck.data)
	if want == nil {
		if !ck.corrupt {
			w.t.Fatalf("rank %d: a corrupt packet was delivered unflagged", rank)
		}
		return
	}
	if ck.corrupt {
		w.t.Fatalf("rank %d: packet from 0 failed its checksum", rank)
	}
	if !bytes.Equal(ck.data, want) {
		w.t.Fatalf("rank %d: delivered a different message", rank)
	}
}

// served shows the daemon on rank at is still serving its segment, which
// it can only do once the previous message's receive lease is released:
// a well-formed packet sent after the crafted one arrives intact.
func (w *fateWorld) served(at int) {
	w.t.Helper()
	dst := at
	if at == 2 {
		dst = 4 // the gateway relays; the far edge delivers
	}
	h, payload := w.good(dst, 0xf0)
	w.send(at, w.encode(h), payload)
	if w.rel {
		if got := w.verdict(at); got != "ack" {
			w.t.Errorf("follow-up packet: verdict %s, want ack", got)
		}
	}
	w.consume(dst, payload)
}

// fwdCounters maps every fwd/* registry name to its RelStats field.
var fwdCounters = []struct {
	name string
	get  func(RelStats) int64
}{
	{"fwd/rel/packet", func(s RelStats) int64 { return s.Packets }},
	{"fwd/rel/retransmit", func(s RelStats) int64 { return s.Retransmits }},
	{"fwd/rel/ack", func(s RelStats) int64 { return s.Acks }},
	{"fwd/rel/nack", func(s RelStats) int64 { return s.Nacks }},
	{"fwd/rel/ctl-damaged", func(s RelStats) int64 { return s.CtlDamaged }},
	{"fwd/rel/backoff", func(s RelStats) int64 { return s.Backoffs }},
	{"fwd/rel/dup-suppressed", func(s RelStats) int64 { return s.DupSuppress }},
	{"fwd/drop/header", func(s RelStats) int64 { return s.DropHeader }},
	{"fwd/drop/len", func(s RelStats) int64 { return s.DropLen }},
	{"fwd/drop/crc", func(s RelStats) int64 { return s.DropCRC }},
	{"fwd/drop/route", func(s RelStats) int64 { return s.DropRoute }},
	{"fwd/drop/closed", func(s RelStats) int64 { return s.DropClosed }},
	{"fwd/relayed-corrupt", func(s RelStats) int64 { return s.RelayedCorrupt }},
	{"fwd/delivered-corrupt", func(s RelStats) int64 { return s.DeliveredCorrupt }},
}

// checkRegistry holds the registry to the one-home rule: it lists every
// fwd/* counter, each equal to the sum of the handles' own counters, and
// every name any layer published follows the naming convention. A gateway
// send thread may still be counting the follow-up's ACK, so the handles
// are summed on both sides of the snapshot and must bracket it.
func (w *fateWorld) checkRegistry() {
	w.t.Helper()
	sum := func() (s RelStats) {
		for _, v := range w.vcs {
			s.Add(v.RelStats())
		}
		return s
	}
	before := sum()
	snap := w.sess.Metrics().Snapshot()
	after := sum()
	for _, c := range fwdCounters {
		got, ok := snap.Counter(c.name)
		if lo, hi := c.get(before), c.get(after); !ok || got < lo || got > hi {
			w.t.Errorf("registry %s = %d (listed: %v), handles sum to %d..%d", c.name, got, ok, lo, hi)
		}
	}
	fwdNames := 0
	for _, c := range snap.Counters {
		if err := metrics.CheckName(c.Name); err != nil {
			w.t.Error(err)
		}
		if strings.HasPrefix(c.Name, "fwd/") {
			fwdNames++
		}
	}
	if fwdNames != len(fwdCounters) {
		w.t.Errorf("registry lists %d fwd/* counters, want %d", fwdNames, len(fwdCounters))
	}
}

// fateWant is one mode's policy for a cause.
type fateWant struct {
	name    string   // registry name of the counter that moves; "" = none
	stats   RelStats // what moved on the deciding daemon's handle
	verdict string   // reliable: the answer to the crafted packet; "" = none
	fatal   bool     // VC.Err on that handle
	stops   bool     // the daemon stops serving
}

// TestGatewayFates injects one crafted packet per cause and mode and
// checks the four things the receive path owes for it: the fate counter
// that moved, the verdict sent (reliable) or none (best-effort), the
// segment's receive lease released whether the daemon lives on or stops,
// and VC.Err set only where the policy says the stream is lost.
func TestGatewayFates(t *testing.T) {
	rows := []struct {
		cause string
		at    int // the rank whose daemon decides the packet's fate
		run   func(w *fateWorld)
		want  map[bool]fateWant // keyed by Spec.Reliable
	}{
		{
			cause: "damaged header", at: 1,
			run: func(w *fateWorld) {
				h, payload := w.good(1, 1)
				hb := w.encode(h)
				hb[21] ^= 0xff // inside the magic word
				if !w.rel {
					payload = nil // the daemon cannot know there is one
				}
				w.send(1, hb, payload)
			},
			want: map[bool]fateWant{
				false: {name: "fwd/drop/header", stats: RelStats{DropHeader: 1}, fatal: true, stops: true},
				true:  {name: "fwd/drop/header", stats: RelStats{DropHeader: 1}, verdict: "nack"},
			},
		},
		{
			cause: "length beyond the MTU", at: 1,
			run: func(w *fateWorld) {
				h, payload := w.good(1, 2)
				h.Len = fateMTU + 1
				if !w.rel {
					payload = nil
				}
				w.send(1, w.encode(h), payload)
			},
			want: map[bool]fateWant{
				false: {name: "fwd/drop/len", stats: RelStats{DropLen: 1}, fatal: true, stops: true},
				true:  {name: "fwd/drop/len", stats: RelStats{DropLen: 1}, verdict: "nack"},
			},
		},
		{
			cause: "unknown destination", at: 2,
			run: func(w *fateWorld) {
				h, payload := w.good(99, 3)
				w.send(2, w.encode(h), payload)
			},
			want: map[bool]fateWant{
				false: {name: "fwd/drop/route", stats: RelStats{DropRoute: 1}},
				true:  {name: "fwd/drop/route", stats: RelStats{DropRoute: 1}, verdict: "nack"},
			},
		},
		{
			// No VC connection reads such a packet: a stream exists only
			// per member origin.
			cause: "unknown origin", at: 1,
			run: func(w *fateWorld) {
				h, payload := w.good(1, 8)
				h.Origin = 99
				w.send(1, w.encode(h), payload)
			},
			want: map[bool]fateWant{
				false: {name: "fwd/drop/route", stats: RelStats{DropRoute: 1}},
				true:  {name: "fwd/drop/route", stats: RelStats{DropRoute: 1}, verdict: "nack"},
			},
		},
		{
			cause: "payload CRC mismatch at the edge", at: 1,
			run: func(w *fateWorld) {
				h, payload := w.good(1, 4)
				h.CRC ^= 1
				w.send(1, w.encode(h), payload)
				if !w.rel {
					w.consume(1, nil) // delivered flagged
				}
			},
			want: map[bool]fateWant{
				false: {name: "fwd/delivered-corrupt", stats: RelStats{DeliveredCorrupt: 1}},
				true:  {name: "fwd/drop/crc", stats: RelStats{DropCRC: 1}, verdict: "nack"},
			},
		},
		{
			cause: "payload CRC mismatch mid-route", at: 2,
			run: func(w *fateWorld) {
				h, payload := w.good(4, 5)
				h.CRC ^= 1
				w.send(2, w.encode(h), payload)
				if !w.rel {
					w.consume(4, nil) // relayed, flagged by the far edge
				}
			},
			want: map[bool]fateWant{
				false: {name: "fwd/relayed-corrupt", stats: RelStats{RelayedCorrupt: 1}},
				true:  {name: "fwd/drop/crc", stats: RelStats{DropCRC: 1}, verdict: "nack"},
			},
		},
		{
			cause: "duplicate link sequence", at: 1,
			run: func(w *fateWorld) {
				h, payload := w.good(1, 6)
				w.send(1, w.encode(h), payload)
				if w.rel && w.verdict(1) != "ack" {
					w.t.Error("the first copy must be acknowledged")
				}
				w.consume(1, payload)
				w.send(1, w.encode(h), payload) // the same packet again
				if !w.rel {
					// No link sequence on the wire: a second message.
					w.consume(1, payload)
				}
			},
			want: map[bool]fateWant{
				false: {},
				true:  {name: "fwd/rel/dup-suppressed", stats: RelStats{DupSuppress: 1}, verdict: "ack"},
			},
		},
		{
			// The PR 9 lease-leak shape: both pipeline buffers are out when
			// a packet to forward arrives, and the handle closes while the
			// daemon waits for one, inside the message scope.
			cause: "pipeline closed mid-message", at: 2,
			run: func(w *fateWorld) {
				p := w.vcs[2].pipe(0, 1)
				for i := 0; i < pipelineBuffers; i++ {
					p.free.Pop()
				}
				h, _ := w.good(4, 7)
				w.send(2, w.encode(h), nil)
			},
			want: map[bool]fateWant{
				false: {stops: true},
				true:  {stops: true},
			},
		},
	}
	for _, row := range rows {
		for _, rel := range []bool{false, true} {
			mode := "best-effort"
			if rel {
				mode = "reliable"
			}
			t.Run(mode+"/"+row.cause, func(t *testing.T) {
				w := newFateWorld(t, rel)
				want := row.want[rel]
				v := w.vcs[row.at]
				row.run(w)

				// The verdict, or the lack of a control plane to send one.
				switch {
				case !rel:
					if len(v.ctls) != 0 {
						t.Error("a best-effort handle has no control channel to answer on")
					}
				case want.verdict != "":
					if got := w.verdict(row.at); got != want.verdict {
						t.Errorf("verdict %s, want %s", got, want.verdict)
					}
				}

				// The receive lease.
				if !want.stops {
					w.served(row.at)
				} else {
					if want.fatal {
						if _, err := v.BeginUnpacking(w.a); err == nil {
							t.Error("a lost stream must fail BeginUnpacking")
						}
					}
					v.Close() // joins the daemon: it did stop
					// The daemon closed the message scope on its way out,
					// which is what releases the lease: the segment channel
					// counts the crafted message as received.
					if n := v.chans[0].Stats().MessagesIn; n != 1 {
						t.Errorf("segment channel finished %d messages, want 1", n)
					}
					if rel {
						if n := v.ctls[0].Stats().MessagesOut; n != 0 {
							t.Errorf("%d verdicts sent by a daemon that stopped mid-packet, want 0", n)
						}
					}
				}

				got := v.RelStats()
				// Relaying the follow-up packet is the gateway's own
				// reliable send on segment 1, not a fate.
				got.Packets, got.Acks = 0, 0
				if got != want.stats {
					t.Errorf("counters moved: %+v, want %+v", got, want.stats)
				}
				if err := v.Err(); (err != nil) != want.fatal {
					t.Errorf("VC.Err() = %v, want fatal = %v", err, want.fatal)
				}
				if want.name != "" {
					if got, _ := w.sess.Metrics().Snapshot().Counter(want.name); got != 1 {
						t.Errorf("registry %s = %d, want 1", want.name, got)
					}
				}
				w.checkRegistry()
				requireQuiescent(t, w.sess, w.vcs)
			})
		}
	}
}

// TestReliableCRCDropReturnsFrame: a delivered packet that the reliable
// edge refuses for its checksum gives back the frame it was read into, so
// twenty refusals, each followed by a clean packet that is consumed, make
// the handle no new frame.
func TestReliableCRCDropReturnsFrame(t *testing.T) {
	w := newFateWorld(t, true)
	v := w.vcs[1]
	w.served(1) // the edge's one circulating frame
	made := v.framesMade.Load()
	for i := 0; i < 20; i++ {
		h, payload := w.good(1, byte(i))
		h.CRC ^= 1
		w.send(1, w.encode(h), payload)
		if got := w.verdict(1); got != "nack" {
			t.Fatalf("corrupt packet %d: verdict %s, want nack", i, got)
		}
		w.served(1)
	}
	if got := v.framesMade.Load() - made; got != 0 {
		t.Errorf("the edge made %d frames over 20 refused packets, want 0", got)
	}
	if got := v.RelStats().DropCRC; got != 20 {
		t.Errorf("%d CRC drops counted, want 20", got)
	}
	requireQuiescent(t, w.sess, w.vcs)
}

// TestStreamBurstReusesFrames: a stream that runs 20 packets ahead of its
// reader holds 20 frames at once. The handle keeps every one of them when
// the reader drains the stream, so the same burst again makes no frame.
func TestStreamBurstReusesFrames(t *testing.T) {
	const depth = 20
	w := newFateWorld(t, false)
	v := w.vcs[1]
	burst := func(round int) {
		var sent [depth][]byte
		for i := range sent {
			h, payload := w.good(1, byte(round*depth+i))
			w.send(1, w.encode(h), payload)
			sent[i] = payload
		}
		for v.streams[0].q.Len() < depth {
			runtime.Gosched()
		}
		for _, payload := range sent {
			w.consume(1, payload)
		}
	}
	burst(0)
	made := v.framesMade.Load()
	burst(1)
	if got := v.framesMade.Load() - made; got != 0 {
		t.Errorf("a second %d-packet burst made %d frames, want 0", depth, got)
	}
	requireQuiescent(t, w.sess, w.vcs)
}
