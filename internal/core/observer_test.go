package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
)

// newObservedChannel is newTestChannel with an observer installed before
// the channel exists, the contract SetObserver documents.
func newObservedChannel(t *testing.T, driver string, obs *Observer) map[int]*Channel {
	t.Helper()
	sess := NewSession(testWorld(2))
	sess.SetObserver(obs)
	chans, err := sess.NewChannel(ChannelSpec{Name: "obs-" + driver, Driver: driver})
	if err != nil {
		t.Fatal(err)
	}
	return chans
}

// labelPrefixes buckets recorded span labels by their taxonomy prefix
// (the part before the first space).
func labelPrefixes(rec *trace.Recorder) map[string]int {
	out := map[string]int{}
	for _, s := range rec.Spans() {
		label := s.Label
		if i := strings.IndexByte(label, ' '); i >= 0 {
			label = label[:i]
		}
		out[label]++
	}
	return out
}

// TestObserverSpansAcrossLayers sends one TM-switching message through an
// observed channel and checks every layer reported: pack and unpack
// spans, the Switch-step commit and checkout, per-TM transfer spans, and
// the receiver's lease-acquisition wait.
func TestObserverSpansAcrossLayers(t *testing.T) {
	rec := trace.New(0)
	obs := NewObserver(rec)
	chans := newObservedChannel(t, "bip", obs)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	blocks := []block{
		{pattern(16, 1), SendCheaper, ReceiveExpress},   // bip-short
		{pattern(8192, 2), SendCheaper, ReceiveCheaper}, // bip-long (TM switch)
	}
	done := make(chan [][]byte, 1)
	go func() { done <- recvMsg(t, chans[1], r, blocks) }()
	sendMsg(t, chans[0], s, 1, blocks)
	<-done

	prefixes := labelPrefixes(rec)
	for _, want := range []string{"P:pack", "U:unpack", "C:commit", "K:checkout", "x:bip-short", "x:bip-long", "v:bip-short", "v:bip-long"} {
		if prefixes[want] == 0 {
			t.Errorf("no %q span recorded; got %v", want, prefixes)
		}
	}

	// The per-TM histograms saw both directions of both TMs.
	lats := obs.TMLatencies()
	for _, want := range []string{"bip-short/tx", "bip-short/rx", "bip-long/tx", "bip-long/rx"} {
		if lats[want].Count == 0 {
			t.Errorf("histogram %q empty; got %v", want, lats)
		}
	}
	if lats["bip-long/tx"].Min <= 0 {
		t.Errorf("bip-long/tx min = %v, want positive transfer time", lats["bip-long/tx"].Min)
	}
	rep := obs.Report()
	if !strings.Contains(rep, "bip-long/tx") || !strings.Contains(rep, "p99") {
		t.Errorf("Report = %q", rep)
	}
}

// TestObserverLeaseWaitSpan makes the send lease contended — two senders
// on the same connection — and checks the loser's wait shows up as a
// "w:lease-send" span, the contention-visibility hook for the
// full-duplex lease rework.
func TestObserverLeaseWaitSpan(t *testing.T) {
	const msgsEach = 10
	rec := trace.New(0)
	chans := newObservedChannel(t, "bip", NewObserver(rec))
	var wg sync.WaitGroup
	sender := func(id byte) {
		defer wg.Done()
		a := vclock.NewActor(fmt.Sprintf("contend-%d", id))
		for seq := 0; seq < msgsEach; seq++ {
			conn, err := chans[0].BeginPacking(a, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if err := conn.Pack(pattern(8192, id), SendCheaper, ReceiveCheaper); err != nil {
				t.Error(err)
				return
			}
			if err := conn.EndPacking(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(2)
	go sender(1)
	go sender(2)
	r := vclock.NewActor("contend-r")
	for i := 0; i < 2*msgsEach; i++ {
		conn, err := chans[1].BeginUnpacking(r)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 8192)
		if err := conn.Unpack(body, SendCheaper, ReceiveCheaper); err != nil {
			t.Fatal(err)
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n := labelPrefixes(rec)["w:lease-send"]; n == 0 {
		t.Errorf("no w:lease-send span under contention; got %v", labelPrefixes(rec))
	}
}

// TestObserverDoesNotChangeVirtualTime runs the same workload observed
// and unobserved: instrumentation must be invisible to the virtual clock.
func TestObserverDoesNotChangeVirtualTime(t *testing.T) {
	run := func(obs *Observer) (vclock.Time, vclock.Time) {
		t.Helper()
		var chans map[int]*Channel
		if obs != nil {
			chans = newObservedChannel(t, "sisci", obs)
		} else {
			chans, _ = newTestChannel(t, "sisci")
		}
		s, r := vclock.NewActor("s"), vclock.NewActor("r")
		blocks := []block{
			{pattern(64, 3), SendCheaper, ReceiveExpress},
			{pattern(16<<10, 4), SendCheaper, ReceiveCheaper},
		}
		done := make(chan [][]byte, 1)
		go func() { done <- recvMsg(t, chans[1], r, blocks) }()
		sendMsg(t, chans[0], s, 1, blocks)
		<-done
		return s.Now(), r.Now()
	}
	sPlain, rPlain := run(nil)
	sObs, rObs := run(NewObserver(trace.New(0)))
	if sPlain != sObs || rPlain != rObs {
		t.Errorf("observer changed virtual time: plain (%v, %v) vs observed (%v, %v)",
			sPlain, rPlain, sObs, rObs)
	}
}

// TestObserverHistogramOnly exercises a non-nil observer with a nil
// recorder: histograms keep aggregating, span recording is a no-op.
func TestObserverHistogramOnly(t *testing.T) {
	obs := NewObserver(nil)
	if obs.Recorder() != nil {
		t.Fatal("nil recorder must stay nil")
	}
	chans := newObservedChannel(t, "bip", obs)
	s, r := vclock.NewActor("s"), vclock.NewActor("r")
	blocks := []block{{pattern(16, 5), SendCheaper, ReceiveExpress}}
	done := make(chan [][]byte, 1)
	go func() { done <- recvMsg(t, chans[1], r, blocks) }()
	sendMsg(t, chans[0], s, 1, blocks)
	<-done
	if obs.TMLatencies()["bip-short/tx"].Count == 0 {
		t.Errorf("histograms must work without a recorder: %v", obs.TMLatencies())
	}
}

// TestObserverNilAccessors covers the nil observer as a first-class
// no-op value.
func TestObserverNilAccessors(t *testing.T) {
	var obs *Observer
	if obs.Recorder() != nil || obs.Metrics() != nil {
		t.Error("nil observer accessors must return nil")
	}
	if obs.TMLatencies() != nil {
		t.Error("nil observer latencies must be nil")
	}
	if !strings.Contains(obs.Report(), "no TM latencies") {
		t.Errorf("nil Report = %q", obs.Report())
	}
	obs.Metrics().Counter("fwd/retransmit").Add(1) // nil-safe no-op
	if obs.Counters() != nil {
		t.Error("nil observer counters must be nil")
	}
}

// TestObserverCounters exercises the named event counters the reliability
// layer reports discrete events (retransmits, drops by cause) through.
func TestObserverCounters(t *testing.T) {
	obs := NewObserver(nil)
	if len(obs.Counters()) != 0 {
		t.Fatalf("fresh observer has counters: %v", obs.Counters())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				obs.Metrics().Counter("fwd/retransmit").Add(1)
			}
		}()
	}
	wg.Wait()
	obs.Metrics().Counter("fwd/drop/crc").Add(3)
	got := obs.Counters()
	if got["fwd/retransmit"] != 800 || got["fwd/drop/crc"] != 3 {
		t.Errorf("counters = %v", got)
	}
	// Counters returns a snapshot, not the live map.
	got["fwd/retransmit"] = 0
	if obs.Counters()["fwd/retransmit"] != 800 {
		t.Error("Counters must snapshot, not alias")
	}
	rep := obs.Report()
	if !strings.Contains(rep, "events:") || !strings.Contains(rep, "fwd/retransmit") {
		t.Errorf("Report must render fired counters: %q", rep)
	}
}

// TestObserverStatsConcurrent drives an observed channel from many
// concurrent senders (run with -race): the per-TM atomic stats and the
// shared histograms must both come out exact.
func TestObserverStatsConcurrent(t *testing.T) {
	const (
		senders = 6
		msgs    = 20
		payload = 512
	)
	rec := trace.New(1 << 14)
	obs := NewObserver(rec)
	sess := NewSession(testWorld(senders + 1))
	sess.SetObserver(obs)
	chans, err := sess.NewChannel(ChannelSpec{Name: "obs-conc", Driver: "bip"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			a := vclock.NewActor(fmt.Sprintf("s%d", s))
			for m := 0; m < msgs; m++ {
				conn, err := chans[s].BeginPacking(a, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if err := conn.Pack(pattern(payload, byte(s)), SendCheaper, ReceiveCheaper); err != nil {
					t.Error(err)
					return
				}
				if err := conn.EndPacking(); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	recvD := vclock.NewActor("r")
	for i := 0; i < senders*msgs; i++ {
		conn, err := chans[0].BeginUnpacking(recvD)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, payload)
		if err := conn.Unpack(buf, SendCheaper, ReceiveCheaper); err != nil {
			t.Fatal(err)
		}
		if err := conn.EndUnpacking(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	st := chans[0].Stats()
	if st.MessagesIn != senders*msgs || st.BlocksIn != senders*msgs {
		t.Errorf("receiver stats = %s", st)
	}
	var sentBlocks int64
	for s := 1; s <= senders; s++ {
		sst := chans[s].Stats()
		sentBlocks += sst.BlocksOut
		if sst.TMBlocks["bip-short"] != msgs {
			t.Errorf("sender %d TMBlocks = %v", s, sst.TMBlocks)
		}
	}
	if sentBlocks != senders*msgs {
		t.Errorf("total sent blocks = %d", sentBlocks)
	}
	lats := obs.TMLatencies()
	if got := lats["bip-short/tx"].Count; got != senders*msgs {
		t.Errorf("bip-short/tx count = %d, want %d", got, senders*msgs)
	}
	if got := lats["bip-short/rx"].Count; got != senders*msgs {
		t.Errorf("bip-short/rx count = %d, want %d", got, senders*msgs)
	}
}

// TestPMMTMsDeclared checks every built-in PMM declares its selectable
// TMs, the pre-registration source for the per-TM atomic counters.
func TestPMMTMsDeclared(t *testing.T) {
	for _, drv := range Drivers() {
		chans, _ := newTestChannel(t, drv)
		pmm := chans[0].pmm
		tms := pmm.TMs()
		if len(tms) == 0 {
			t.Errorf("%s: no TMs declared", drv)
		}
		seen := map[string]bool{}
		for _, tm := range tms {
			if tm == nil {
				t.Errorf("%s: nil TM declared", drv)
				continue
			}
			if seen[tm.Name()] {
				t.Errorf("%s: duplicate TM %q", drv, tm.Name())
			}
			seen[tm.Name()] = true
		}
	}
}
