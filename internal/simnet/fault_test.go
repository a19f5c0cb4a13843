package simnet

import (
	"bytes"
	"sync"
	"testing"
)

// faultWorld builds two nodes joined by a "net" fabric and returns the
// sender's adapter (faults strike on the way out) and the receiver's.
func faultWorld(t *testing.T) (*Adapter, *Adapter) {
	t.Helper()
	w := NewWorld(2)
	src := w.Node(0).AddAdapter("net")
	dst := w.Node(1).AddAdapter("net")
	return src, dst
}

func payload(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

// deliverAll pushes count payload-sized packets and pops what arrives.
func deliverAll(src, dst *Adapter, count, size int) [][]byte {
	for i := 0; i < count; i++ {
		src.Deliver(dst, 0, Packet{Data: payload(size, byte(i)), Inject: int64(i) * 1000, Arrive: int64(i)*1000 + 100})
	}
	out := make([][]byte, count)
	for i := range out {
		p, _ := dst.Recv(0, 0)
		out[i] = p.Data
	}
	return out
}

func TestFaultPlanNilIsTransparent(t *testing.T) {
	src, dst := faultWorld(t)
	src.SetFaults(&FaultPlan{Seed: 1, Drop: 1})
	src.SetFaults(nil) // disarm again
	for i, got := range deliverAll(src, dst, 8, 512) {
		if !bytes.Equal(got, payload(512, byte(i))) {
			t.Fatalf("packet %d modified with no plan installed", i)
		}
	}
	if s := src.FaultStats(); s != (FaultStats{}) {
		t.Errorf("disarmed adapter counted faults: %+v", s)
	}
}

func TestFaultPlanIsSeededDeterministic(t *testing.T) {
	run := func() ([][]byte, FaultStats) {
		src, dst := faultWorld(t)
		src.SetFaults(&FaultPlan{Seed: 42, Corrupt: 0.3, Drop: 0.2, MinBytes: 1})
		out := deliverAll(src, dst, 64, 256)
		return out, src.FaultStats()
	}
	a, as := run()
	b, bs := run()
	if as != bs {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", as, bs)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("packet %d differs across identical runs", i)
		}
	}
	if as.Corrupted == 0 || as.Dropped == 0 {
		t.Fatalf("plan with corrupt=0.3 drop=0.2 over 64 packets injected nothing: %+v", as)
	}
	// Corruption flips exactly one byte; a drop garbles (essentially)
	// every byte. Verify both shapes appear.
	oneByte, scrambled := 0, 0
	for i, got := range a {
		want := payload(256, byte(i))
		diff := 0
		for j := range got {
			if got[j] != want[j] {
				diff++
			}
		}
		switch {
		case diff == 1:
			oneByte++
		case diff > len(got)/2:
			scrambled++
		case diff != 0:
			t.Fatalf("packet %d: unexpected damage shape (%d bytes differ)", i, diff)
		}
	}
	if int64(oneByte) != as.Corrupted || int64(scrambled) != as.Dropped {
		t.Errorf("observed %d flips/%d scrambles, counters say %d/%d", oneByte, scrambled, as.Corrupted, as.Dropped)
	}
}

func TestFaultPlanMinBytesSparesControlFrames(t *testing.T) {
	src, dst := faultWorld(t)
	src.SetFaults(&FaultPlan{Seed: 7, Drop: 1}) // MinBytes 0 → DefaultFaultMinBytes
	for i, got := range deliverAll(src, dst, 16, DefaultFaultMinBytes-1) {
		if !bytes.Equal(got, payload(DefaultFaultMinBytes-1, byte(i))) {
			t.Fatalf("sub-floor packet %d was struck", i)
		}
	}
	if got := deliverAll(src, dst, 1, DefaultFaultMinBytes)[0]; bytes.Equal(got, payload(DefaultFaultMinBytes, 0)) {
		t.Fatal("at-floor packet escaped a certain drop")
	}
}

func TestFaultPlanDelayAndJitterShiftArrival(t *testing.T) {
	src, dst := faultWorld(t)
	src.SetFaults(&FaultPlan{Seed: 3, Delay: 500, Jitter: 300, MinBytes: 1})
	src.Deliver(dst, 0, Packet{Data: payload(128, 0), Inject: 0, Arrive: 100})
	p, _ := dst.Recv(0, 0)
	if p.Arrive < 600 || p.Arrive >= 900 {
		t.Fatalf("arrival %d not in delayed window [600,900)", p.Arrive)
	}
	if !bytes.Equal(p.Data, payload(128, 0)) {
		t.Fatal("delay must not damage the payload")
	}
	if s := src.FaultStats(); s.Delayed != 1 {
		t.Errorf("delayed count = %d, want 1", s.Delayed)
	}
}

func TestFaultPlanBurstWindowScramblesEverything(t *testing.T) {
	src, dst := faultWorld(t)
	src.SetFaults(&FaultPlan{Seed: 9, BurstStart: 1000, BurstEnd: 2000, MinBytes: 1})
	inWindow := 0
	for i := 0; i < 30; i++ {
		inject := int64(i) * 100 // 0..2900: ten transfers inside the window
		src.Deliver(dst, 0, Packet{Data: payload(64, byte(i)), Inject: inject, Arrive: inject + 10})
		p, _ := dst.Recv(0, 0)
		intact := bytes.Equal(p.Data, payload(64, byte(i)))
		if inject >= 1000 && inject < 2000 {
			inWindow++
			if intact {
				t.Fatalf("transfer injected at %d inside the burst survived", inject)
			}
		} else if !intact {
			t.Fatalf("transfer injected at %d outside the burst was struck", inject)
		}
	}
	if s := src.FaultStats(); s.Dropped != int64(inWindow) {
		t.Errorf("dropped = %d, want %d (every in-window transfer)", s.Dropped, inWindow)
	}
}

func TestFaultPlanStrikesSegmentWrites(t *testing.T) {
	w := NewWorld(2)
	owner := w.Node(0).AddAdapter("sci")
	w.Node(1).AddAdapter("sci")
	seg := owner.CreateSegment(1, 8<<10)

	owner.SetFaults(&FaultPlan{Seed: 5, Drop: 1, MinBytes: 1})
	data := payload(4096, 1)
	seg.Write(0, data, WriteRecord{Inject: 0, Arrive: 50})
	got := make([]byte, len(data))
	seg.Read(0, got)
	if bytes.Equal(got, data) {
		t.Fatal("segment write escaped a certain drop")
	}
	if s := owner.FaultStats(); s.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", s.Dropped)
	}

	// Disarmed again: writes land verbatim.
	owner.SetFaults(nil)
	seg.Write(0, data, WriteRecord{})
	seg.Read(0, got)
	if !bytes.Equal(got, data) {
		t.Fatal("clean segment write corrupted")
	}
}

func TestCorruptNextStrikesSegmentWrites(t *testing.T) {
	w := NewWorld(1)
	owner := w.Node(0).AddAdapter("sci")
	seg := owner.CreateSegment(2, 4<<10)
	owner.CorruptNextMin(100)
	small := payload(64, 2)
	seg.Write(0, small, WriteRecord{}) // below the floor: spared
	got := make([]byte, 64)
	seg.Read(0, got)
	if !bytes.Equal(got, small) {
		t.Fatal("sub-floor write was struck")
	}
	big := payload(512, 3)
	seg.Write(1024, big, WriteRecord{})
	gotBig := make([]byte, 512)
	seg.Read(1024, gotBig)
	diff := 0
	for i := range gotBig {
		if gotBig[i] != big[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("single-shot segment fault flipped %d bytes, want 1", diff)
	}
}

// TestFaultStrikeIsOrderIndependent pins the concurrency contract of the
// fault process: a transfer's fate is a pure function of the plan seed
// and the transfer's own coordinates, so the interleaving of concurrent
// strikes through the same adapter cannot change any outcome. Two passes
// over the same transfer set — one in order, one reversed and raced from
// many goroutines — must produce identical bytes and delays.
func TestFaultStrikeIsOrderIndependent(t *testing.T) {
	src, _ := faultWorld(t)
	src.SetFaults(&FaultPlan{Seed: 7, Corrupt: 0.4, Drop: 0.3, Jitter: 500, MinBytes: 1})
	fs := src.faults.Load()

	const n = 128
	type fate struct {
		data  []byte
		extra int64
	}
	forward := make([]fate, n)
	for i := 0; i < n; i++ {
		d, extra := fs.strike(payload(96, byte(i)), int64(i)*50)
		forward[i] = fate{d, extra}
	}

	// Same transfers, struck in reverse from concurrent goroutines.
	backward := make([]fate, n)
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, extra := fs.strike(payload(96, byte(i)), int64(i)*50)
			backward[i] = fate{d, extra}
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if !bytes.Equal(forward[i].data, backward[i].data) || forward[i].extra != backward[i].extra {
			t.Fatalf("transfer %d: fate depends on strike order", i)
		}
	}
}
