package mpi

import (
	"bytes"
	"testing"

	"madeleine2/internal/vclock"
)

func TestIsendWaitMatchesSend(t *testing.T) {
	cs := comms(t, 2, "sisci")
	parallel(t, cs, func(c *Comm) {
		defer c.Close()
		switch c.Rank() {
		case 0:
			req := c.Isend(1, 3, []byte("nonblocking"))
			if _, err := req.Wait(); err != nil {
				t.Error(err)
			}
		case 1:
			buf := make([]byte, 16)
			st, err := c.Recv(0, 3, buf)
			if err != nil || string(buf[:st.Count]) != "nonblocking" {
				t.Errorf("recv: %q, %v", buf[:st.Count], err)
			}
		}
	})
}

func TestIsendBufferReusableImmediately(t *testing.T) {
	cs := comms(t, 2, "tcp")
	parallel(t, cs, func(c *Comm) {
		defer c.Close()
		switch c.Rank() {
		case 0:
			data := []byte("original")
			req := c.Isend(1, 0, data)
			copy(data, "CLOBBER!") // buffered send: clobbering is safe
			req.Wait()
		case 1:
			buf := make([]byte, 8)
			c.Recv(0, 0, buf)
			if string(buf) != "original" {
				t.Errorf("got %q", buf)
			}
		}
	})
}

func TestIsendOverlapsComputation(t *testing.T) {
	// A large Isend plus 5 ms of local compute must cost roughly
	// max(transfer, compute), not their sum.
	cs := comms(t, 2, "sisci")
	const n = 1 << 20 // ≈12.8 ms transfer over SISCI
	var total vclock.Time
	parallel(t, cs, func(c *Comm) {
		defer c.Close()
		switch c.Rank() {
		case 0:
			req := c.Isend(1, 0, make([]byte, n))
			c.Actor().Advance(vclock.Micros(5000)) // overlapped compute
			req.Wait()
			total = c.Actor().Now()
		case 1:
			c.Recv(0, 0, make([]byte, n))
		}
	})
	serial := vclock.Micros(5000) + vclock.Micros(12500)
	if total >= serial {
		t.Errorf("no overlap: total %v >= serial %v", total, serial)
	}
	if total < vclock.Micros(12000) {
		t.Errorf("total %v below the transfer time", total)
	}
}

func TestIsendOrderPreserved(t *testing.T) {
	cs := comms(t, 2, "tcp")
	parallel(t, cs, func(c *Comm) {
		defer c.Close()
		switch c.Rank() {
		case 0:
			var reqs []*Request
			for i := 0; i < 8; i++ {
				reqs = append(reqs, c.Isend(1, 5, []byte{byte(i)}))
			}
			if err := Waitall(reqs...); err != nil {
				t.Error(err)
			}
		case 1:
			for i := 0; i < 8; i++ {
				buf := make([]byte, 1)
				if _, err := c.Recv(0, 5, buf); err != nil || buf[0] != byte(i) {
					t.Errorf("message %d: got %d, %v", i, buf[0], err)
				}
			}
		}
	})
}

func TestIrecvWait(t *testing.T) {
	cs := comms(t, 2, "sisci")
	payload := bytes.Repeat([]byte{7}, 2048)
	parallel(t, cs, func(c *Comm) {
		defer c.Close()
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 9, payload); err != nil {
				t.Error(err)
			}
		case 1:
			buf := make([]byte, 4096)
			req := c.Irecv(0, 9, buf)
			st, err := req.Wait()
			if err != nil || st.Count != len(payload) || !bytes.Equal(buf[:st.Count], payload) {
				t.Errorf("irecv: %+v, %v", st, err)
			}
			// A second Wait is idempotent.
			st2, err2 := req.Wait()
			if err2 != nil || st2 != st {
				t.Errorf("re-wait: %+v, %v", st2, err2)
			}
		}
	})
}

// TestIsendErrorSurfacesAtWait: a bad rank, a self-send and a bad tag are
// each reported by Wait, and none of them opens a conversation.
func TestIsendErrorSurfacesAtWait(t *testing.T) {
	cs := comms(t, 2, "tcp")
	c := cs[0]
	defer c.Close()
	for _, x := range []struct {
		name     string
		dst, tag int
	}{{"bad destination", 7, 0}, {"self-send", 0, 0}, {"bad tag", 1, MaxTag}} {
		if _, err := c.Isend(x.dst, x.tag, []byte{1}).Wait(); err == nil {
			t.Errorf("%s must surface at Wait", x.name)
		}
	}
	if n, q := c.Inflight(), c.m.cq.Len(); n != 0 || q != 0 {
		t.Fatalf("rejected Isends left %d in flight, %d completions queued", n, q)
	}
	if err := c.m.ch.Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestIsendThenSendOrder pins non-overtaking per (source, tag) across the
// blocking and non-blocking paths: an Isend followed by a Send to the same
// rank arrives first, also with an Isend to another rank in between.
// After Waitall the family's completion queue holds nothing.
func TestIsendThenSendOrder(t *testing.T) {
	for i := 0; i < 50; i++ {
		cs := comms(t, 3, "tcp")
		parallel(t, cs, func(c *Comm) {
			switch c.Rank() {
			case 0:
				a := c.Isend(1, 5, []byte{0})
				if err := c.Send(1, 5, []byte{1}); err != nil {
					t.Error(err)
				}
				b := c.Isend(1, 5, []byte{2})
				d := c.Isend(2, 5, []byte{3})
				if err := c.Send(1, 5, []byte{4}); err != nil {
					t.Error(err)
				}
				if err := Waitall(a, b, d); err != nil {
					t.Error(err)
				}
				if n := c.m.cq.Len(); n != 0 {
					t.Errorf("%d completions left on the CQ after Waitall", n)
				}
			case 1:
				for _, want := range []byte{0, 1, 2, 4} {
					buf := make([]byte, 1)
					if _, err := c.Recv(0, 5, buf); err != nil || buf[0] != want {
						t.Errorf("run %d: got %d, %v; want %d", i, buf[0], err, want)
					}
				}
			case 2:
				buf := make([]byte, 1)
				if _, err := c.Recv(0, 5, buf); err != nil || buf[0] != 3 {
					t.Errorf("run %d: rank 2 got %d, %v", i, buf[0], err)
				}
			}
		})
		if t.Failed() {
			return
		}
		if err := cs[0].m.ch.Session().CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseJoinsIsends: Close returns once every posted Isend has
// completed, though none was waited for.
func TestCloseJoinsIsends(t *testing.T) {
	cs := comms(t, 2, "sisci")
	const msgs, n = 8, 256 << 10
	recvd := make(chan error, 1)
	go func() {
		buf := make([]byte, n)
		for i := 0; i < msgs; i++ {
			if _, err := cs[1].Recv(0, 1, buf); err != nil {
				recvd <- err
				return
			}
		}
		recvd <- nil
	}()
	c := cs[0]
	for i := 0; i < msgs; i++ {
		c.Isend(1, 1, make([]byte, n))
	}
	c.Close()
	if err := <-recvd; err != nil {
		t.Fatal(err)
	}
	if k := c.Inflight(); k != 0 {
		t.Fatalf("Close returned with %d Isends in flight", k)
	}
	if err := c.m.ch.Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
