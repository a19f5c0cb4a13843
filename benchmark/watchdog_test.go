package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"madeleine2/internal/core"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// wedged is a fake workload whose first segment never returns.
type wedged struct {
	sess  *core.Session
	block chan struct{}
}

func (w *wedged) setup(*phases) error {
	w.sess = core.NewSession(simnet.NewWorld(2))
	w.sess.Metrics().Counter("bench/wedged/marker").Add(7)
	return nil
}
func (w *wedged) segment(int, verifyMode) (int, int, error) { <-w.block; return 1, 0, nil }
func (w *wedged) virt() vclock.Time                         { return 0 }
func (w *wedged) session() *core.Session                    { return w.sess }
func (w *wedged) layer(metricSet, pass)                     {}
func (w *wedged) teardown() error                           { return nil }

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestWatchdogEndsAWedgedWorkload is the PR 11 failure as a test: a
// workload that hangs must become exit code 3 with a diagnosis, within the
// deadline, instead of a process that outlives the command.
func TestWatchdogEndsAWedgedWorkload(t *testing.T) {
	block := make(chan struct{})
	defer close(block) // releases the wedged goroutine once the test is over
	out := &lockedBuffer{}
	code := make(chan int, 1)
	wd := &watchdog{
		out:   out,
		exit:  func(c int) { code <- c },
		limit: func(float64) time.Duration { return 50 * time.Millisecond },
	}
	w := workload{name: "wedged", segUnits: 1, traceDiv: 1,
		build: func(params) scenario { return &wedged{block: block} }}
	go func() { _, _ = runOne(w, config{seed: 1, scale: 1}, false, wd) }() // never finishes: that is the point

	select {
	case c := <-code:
		if c != 3 {
			t.Errorf("exit code %d, want 3", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire within 5 s of a 50 ms deadline")
	}
	dump := out.String()
	for _, want := range []string{"wedged did not finish", "goroutine ", "(*wedged).segment", "bench/wedged/marker"} {
		if !strings.Contains(dump, want) {
			t.Errorf("watchdog dump lacks %q", want)
		}
	}
}

func TestWorkloadDeadlineStaysInsideTheDriverLimit(t *testing.T) {
	for _, s := range []float64{0, 1, 10, 30, 60} {
		if d := workloadDeadline(s); d > 170*time.Second || d < 30*time.Second {
			t.Errorf("deadline for %v s is %v", s, d)
		}
	}
}
