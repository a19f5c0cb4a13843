package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"madeleine2/internal/vclock"
)

// registered reports how many receivers wait in c's registration FIFO.
func registered(c *Channel) int { return c.ann.Waiting() }

// waitRegistered returns once n receivers wait on c, and fails the test if
// they do not within ten seconds. It allocates nothing while it waits.
func waitRegistered(t *testing.T, c *Channel, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); registered(c) < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d receivers registered, want %d", registered(c), n)
		}
	}
}

// TestAnnouncementOrder pins the one registration FIFO that sync receivers
// and async receive conversations share. Registered alternately on one
// channel, each receives the message whose turn matches its registration.
// A sync receive that parks on a channel that already had an async
// receiver allocates nothing.
func TestAnnouncementOrder(t *testing.T) {
	mem := registerMemDriver(t, "eager")
	for _, drv := range []string{"tcp", mem} {
		t.Run(drv, func(t *testing.T) {
			chans, sess := newTestChannel(t, drv)
			defer sess.Shutdown()
			const n = 4
			got, done := make([][]byte, n), make([]chan error, n)
			for i := range n {
				got[i], done[i] = make([]byte, 64), make(chan error, 1)
				if i%2 == 0 {
					go func() {
						done[i] <- chans[1].Recv(vclock.NewActor(fmt.Sprintf("sync-%d", i)), func(cn *Connection) error {
							return cn.Unpack(got[i], SendCheaper, ReceiveCheaper)
						})
					}()
				} else {
					cq := NewCQ()
					cq.OnCompletion(func(c Completion) {
						if c.Kind == OpEnd {
							done[i] <- c.Err
						}
					})
					am := chans[1].SubmitUnpacking(cq)
					am.SubmitUnpack(got[i], SendCheaper, ReceiveCheaper).Discard()
					am.SubmitEnd()
				}
				waitRegistered(t, chans[1], i+1)
			}
			s := vclock.NewActor("s")
			for i := range n {
				msg := pattern(64, byte(i))
				if err := chans[0].Send(s, 1, func(cn *Connection) error {
					return cn.Pack(msg, SendCheaper, ReceiveCheaper)
				}); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-done[i]:
					if err != nil {
						t.Fatalf("receiver %d: %v", i, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("receiver %d never completed: message %d went to a later receiver", i, i)
				}
				if !bytes.Equal(got[i], msg) {
					t.Errorf("receiver %d did not get message %d", i, i)
				}
			}
			requireFindings(t, sess)
		})
	}

	t.Run("parked-sync-allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector's instrumentation allocates")
		}
		chans, sess := newTestChannel(t, mem)
		defer sess.Shutdown()
		s, r := vclock.NewActor("s"), vclock.NewActor("r")
		msg, dst := pattern(64, 1), make([]byte, 64)
		send := func(cn *Connection) error { return cn.Pack(msg, SendCheaper, ReceiveCheaper) }
		unpack := func(cn *Connection) error { return cn.Unpack(dst, SendCheaper, ReceiveCheaper) }

		// One async receiver first: the channel has had one from then on.
		cq := NewCQ()
		am := chans[1].SubmitUnpacking(cq)
		am.SubmitUnpack(dst, SendCheaper, ReceiveCheaper).Discard()
		am.SubmitEnd()
		if err := chans[0].Send(s, 1, send); err != nil {
			t.Fatal(err)
		}
		if c, _ := cq.Wait(); c.Err != nil {
			t.Fatal(c.Err)
		}

		next, done := make(chan struct{}), make(chan error)
		defer close(next)
		go func() {
			for range next {
				done <- chans[1].Recv(r, unpack)
			}
		}()
		const msgs = 2000
		var before, after runtime.MemStats
		for i := -100; i < msgs; i++ {
			if i == 0 {
				runtime.ReadMemStats(&before)
			}
			next <- struct{}{}
			waitRegistered(t, chans[1], 1) // parked before the message starts
			if err := chans[0].Send(s, 1, send); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if got := float64(after.Mallocs-before.Mallocs) / msgs; got > 0.01 {
			t.Errorf("a parked sync receive allocates %.2f objects per message, want none", got)
		}
	})
}
