package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"madeleine2/internal/core"
)

// watchdog turns a wedged world into a diagnosed non-zero exit instead of a
// process that outlives its caller's patience: when an armed deadline
// passes it dumps every goroutine's stack and the watched session's last
// registry snapshot to stderr and exits with code 3. The benchmark starts
// no child process and no listener, so exiting is all the cleanup there is.
type watchdog struct {
	mu    sync.Mutex
	what  string
	timer *time.Timer
	sess  *core.Session

	out   io.Writer                           // stderr; a buffer in tests
	exit  func(code int)                      // os.Exit; recorded in tests
	limit func(seconds float64) time.Duration // workloadDeadline; shortened in tests
}

func newWatchdog() *watchdog {
	return &watchdog{out: os.Stderr, exit: os.Exit, limit: workloadDeadline}
}

// arm (re)starts the deadline for the named piece of work.
func (w *watchdog) arm(what string, d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timer != nil {
		w.timer.Stop()
	}
	w.what = what
	w.timer = time.AfterFunc(d, w.expire)
}

func (w *watchdog) disarm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
}

// watch names the session whose registry an expiry should dump.
func (w *watchdog) watch(s *core.Session) {
	w.mu.Lock()
	w.sess = s
	w.mu.Unlock()
}

func (w *watchdog) expire() {
	w.mu.Lock()
	what, sess := w.what, w.sess
	w.mu.Unlock()
	fmt.Fprintf(w.out, "madperf: watchdog: %s did not finish in time; goroutines:\n", what)
	_ = pprof.Lookup("goroutine").WriteTo(w.out, 2) // diagnostics on the way out
	if sess != nil {
		fmt.Fprintf(w.out, "\nmadperf: watchdog: last registry snapshot:\n")
		if b, err := json.Marshal(sess.Metrics().Snapshot()); err == nil {
			fmt.Fprintf(w.out, "%s\n", b)
		}
	}
	w.exit(3)
}

// workloadDeadline is four times a workload invocation's expected duration
// (measured seconds plus set-up, warm-up, verification and probes), capped
// so the process always ends inside the driver's 180 s limit.
func workloadDeadline(seconds float64) time.Duration {
	d := 4 * time.Duration((seconds*1.5+8)*float64(time.Second))
	if limit := 170 * time.Second; d > limit {
		d = limit
	}
	return d
}

// exitOnSignal makes SIGINT and SIGTERM end the process at once.
func exitOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		fmt.Fprintf(os.Stderr, "madperf: %v: exiting\n", s)
		os.Exit(130)
	}()
}
