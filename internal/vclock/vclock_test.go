package vclock

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := Micros(3.9); got != 3900 {
		t.Errorf("Micros(3.9) = %d, want 3900", got)
	}
	if got := Time(3900).Microseconds(); got != 3.9 {
		t.Errorf("Microseconds() = %g, want 3.9", got)
	}
	if got := Second.Seconds(); got != 1.0 {
		t.Errorf("Second.Seconds() = %g, want 1", got)
	}
	if got := Time(2500).String(); got != "2.500µs" {
		t.Errorf("String() = %q", got)
	}
}

func TestTimeForBytes(t *testing.T) {
	// 126 MB/s moving 126e6 bytes takes exactly one second.
	if got := TimeForBytes(126_000_000, 126); got != Second {
		t.Errorf("TimeForBytes = %v, want 1s", got)
	}
	// 1 kB at 1 MB/s takes 1024 µs.
	if got := TimeForBytes(1024, 1); got != 1024*Microsecond {
		t.Errorf("TimeForBytes(1024,1) = %v", got)
	}
	if got := TimeForBytes(0, 100); got != 0 {
		t.Errorf("zero bytes should take zero time, got %v", got)
	}
	if got := TimeForBytes(100, 0); got != 0 {
		t.Errorf("zero rate must yield zero time, got %v", got)
	}
	if got := TimeForBytes(-5, 100); got != 0 {
		t.Errorf("negative size must yield zero time, got %v", got)
	}
}

func TestMBps(t *testing.T) {
	if got := MBps(126_000_000, Second); got != 126 {
		t.Errorf("MBps = %g, want 126", got)
	}
	if got := MBps(1000, 0); got != 0 {
		t.Errorf("MBps with zero duration = %g, want 0", got)
	}
}

func TestTimeForBytesRoundTrip(t *testing.T) {
	// Property: MBps(n, TimeForBytes(n, r)) ≈ r for positive inputs.
	f := func(n uint16, r uint8) bool {
		size := int(n) + 1
		rate := float64(r)/4 + 0.5
		d := TimeForBytes(size, rate)
		got := MBps(size, d)
		return got > rate*0.95 && got < rate*1.05
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 || Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Max/Min broken")
	}
}

func TestActor(t *testing.T) {
	a := NewActor("node0")
	if a.Name() != "node0" {
		t.Errorf("Name = %q", a.Name())
	}
	if a.Now() != 0 {
		t.Errorf("fresh actor clock = %v, want 0", a.Now())
	}
	a.Advance(Micros(5))
	if a.Now() != Micros(5) {
		t.Errorf("after Advance: %v", a.Now())
	}
	a.Advance(-Micros(100)) // ignored
	if a.Now() != Micros(5) {
		t.Errorf("negative Advance must be ignored, clock = %v", a.Now())
	}
	a.Sync(Micros(3)) // in the past: no-op
	if a.Now() != Micros(5) {
		t.Errorf("Sync to the past moved clock to %v", a.Now())
	}
	a.Sync(Micros(9))
	if a.Now() != Micros(9) {
		t.Errorf("Sync to the future: clock = %v, want 9µs", a.Now())
	}
	a.SetNow(0)
	if a.Now() != 0 {
		t.Errorf("SetNow: %v", a.Now())
	}
}

func TestActorSyncIdempotentCommutative(t *testing.T) {
	// Property: applying a set of Sync stamps in any order yields max.
	f := func(stamps []int32) bool {
		a := NewActor("p")
		b := NewActor("q")
		var want Time
		for _, s := range stamps {
			st := Time(s)
			a.Sync(st)
			if st > want {
				want = st
			}
		}
		for i := len(stamps) - 1; i >= 0; i-- {
			b.Sync(Time(stamps[i]))
		}
		if want < 0 {
			want = 0
		}
		return a.Now() == want && b.Now() == want
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("nic-tx")
	s1, e1 := r.Acquire(0, Micros(10))
	if s1 != 0 || e1 != Micros(10) {
		t.Fatalf("first acquisition [%v,%v)", s1, e1)
	}
	// Requested before the resource frees: queued in virtual time.
	s2, e2 := r.Acquire(Micros(4), Micros(10))
	if s2 != Micros(10) || e2 != Micros(20) {
		t.Fatalf("second acquisition [%v,%v), want [10µs,20µs)", s2, e2)
	}
	// Requested after it frees: starts at request time.
	s3, e3 := r.Acquire(Micros(50), Micros(5))
	if s3 != Micros(50) || e3 != Micros(55) {
		t.Fatalf("third acquisition [%v,%v), want [50µs,55µs)", s3, e3)
	}
	if r.FreeAt() != Micros(55) {
		t.Errorf("FreeAt = %v", r.FreeAt())
	}
	if r.BusyTime() != Micros(25) {
		t.Errorf("BusyTime = %v, want 25µs", r.BusyTime())
	}
	if r.Acquisitions() != 3 {
		t.Errorf("Acquisitions = %d", r.Acquisitions())
	}
	r.Reset()
	if r.FreeAt() != 0 || r.BusyTime() != 0 || r.Acquisitions() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestResourceNegativeDuration(t *testing.T) {
	r := NewResource("x")
	s, e := r.Acquire(Micros(1), -Micros(5))
	if s != Micros(1) || e != Micros(1) {
		t.Errorf("negative duration: [%v,%v)", s, e)
	}
}

func TestResourceTotalBusyInvariant(t *testing.T) {
	// Property: regardless of request pattern, total busy time equals the
	// sum of requested durations, and freeAt >= every interval end.
	f := func(reqs []uint16) bool {
		r := NewResource("p")
		var sum Time
		var lastEnd Time
		for _, q := range reqs {
			at := Time(q % 997)
			dur := Time(q%251) * Microsecond / 10
			_, end := r.Acquire(at, dur)
			sum += dur
			if end < lastEnd {
				return false // serial resource must be monotone
			}
			lastEnd = end
		}
		return r.BusyTime() == sum && r.FreeAt() == lastEnd
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestResourceConcurrentSafety(t *testing.T) {
	// Concurrent acquisitions must preserve the busy-time invariant.
	r := NewResource("shared")
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Acquire(0, Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := r.BusyTime(), Time(workers*per)*Microsecond; got != want {
		t.Errorf("BusyTime = %v, want %v", got, want)
	}
	if r.FreeAt() != r.BusyTime() {
		t.Errorf("FreeAt = %v, want %v (all requests at epoch)", r.FreeAt(), r.BusyTime())
	}
}
