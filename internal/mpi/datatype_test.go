package mpi

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"madeleine2/internal/core"
)

func TestDatatypeConstructors(t *testing.T) {
	c := Contiguous(100)
	if c.Size() != 100 || c.Extent() != 100 || c.Segments() != 1 {
		t.Errorf("contiguous: %d/%d/%d", c.Size(), c.Extent(), c.Segments())
	}
	if z := Contiguous(0); z.Size() != 0 || z.Segments() != 0 {
		t.Error("zero contiguous broken")
	}
	v, err := Vector(4, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 32 || v.Extent() != 3*32+8 || v.Segments() != 4 {
		t.Errorf("vector: %d/%d/%d", v.Size(), v.Extent(), v.Segments())
	}
	if _, err := Vector(2, 16, 8); err == nil {
		t.Error("stride below blocklen must fail")
	}
	if _, err := Vector(-1, 8, 8); err == nil {
		t.Error("negative count must fail")
	}
	ix, err := Indexed([]int{0, 100}, []int{10, 20})
	if err != nil || ix.Size() != 30 || ix.Extent() != 120 {
		t.Errorf("indexed: %v %d/%d", err, ix.Size(), ix.Extent())
	}
	if _, err := Indexed([]int{0, 5}, []int{10, 20}); err == nil {
		t.Error("overlapping segments must fail")
	}
	if _, err := Indexed([]int{0}, []int{1, 2}); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestVectorRoundTrip(t *testing.T) {
	// A strided column exchange: send every 4th 8-byte block of a matrix
	// row-major buffer, receive into the same layout.
	cs := comms(t, 2, "sisci")
	const count, blocklen, stride = 16, 8, 32
	d, err := Vector(count, blocklen, stride)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, d.Extent())
	for i := range src {
		src[i] = byte(i * 7)
	}
	parallel(t, cs, func(c *Comm) {
		switch c.Rank() {
		case 0:
			if err := c.SendType(1, 5, src, d); err != nil {
				t.Error(err)
			}
		case 1:
			dst := make([]byte, d.Extent())
			st, err := c.RecvType(0, 5, dst, d)
			if err != nil || st.Count != d.Size() {
				t.Errorf("recv: %+v, %v", st, err)
				return
			}
			// Selected bytes must match; gaps must stay zero.
			for b := 0; b < count; b++ {
				off := b * stride
				if !bytes.Equal(dst[off:off+blocklen], src[off:off+blocklen]) {
					t.Errorf("block %d corrupted", b)
				}
				for i := off + blocklen; i < off+stride && i < len(dst); i++ {
					if dst[i] != 0 {
						t.Errorf("gap byte %d written", i)
					}
				}
			}
		}
	})
}

func TestTypedToContiguousRecv(t *testing.T) {
	// A typed send is wire-compatible with a plain Recv of the packed
	// bytes (MPI type-signature equivalence).
	cs := comms(t, 2, "tcp")
	d, _ := Vector(3, 4, 10)
	src := make([]byte, d.Extent())
	for i := range src {
		src[i] = byte(i + 1)
	}
	parallel(t, cs, func(c *Comm) {
		switch c.Rank() {
		case 0:
			if err := c.SendType(1, 0, src, d); err != nil {
				t.Error(err)
			}
		case 1:
			buf := make([]byte, d.Size())
			st, err := c.Recv(0, 0, buf)
			if err != nil || st.Count != d.Size() {
				t.Errorf("recv: %+v, %v", st, err)
				return
			}
			want := []byte{1, 2, 3, 4, 11, 12, 13, 14, 21, 22, 23, 24}
			if !bytes.Equal(buf, want) {
				t.Errorf("packed bytes = %v, want %v", buf, want)
			}
		}
	})
}

func TestTypedErrors(t *testing.T) {
	cs := comms(t, 2, "tcp")
	d, _ := Vector(4, 8, 16)
	small := make([]byte, 10)
	if err := cs[0].SendType(1, 0, small, d); err == nil {
		t.Error("extent beyond the buffer must fail on send")
	}
	if _, err := cs[0].RecvType(1, 0, small, d); err == nil {
		t.Error("extent beyond the buffer must fail on receive")
	}
	if err := cs[0].SendType(0, 0, make([]byte, 64), d); err == nil {
		t.Error("self-send must fail")
	}
	// Size mismatch detection.
	parallel(t, cs, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 1, make([]byte, 8))
		case 1:
			d2, _ := Vector(4, 4, 8) // 16 bytes, sender sent 8
			if _, err := c.RecvType(0, 1, make([]byte, 64), d2); err == nil {
				t.Error("type size mismatch must be reported")
			}
		}
	})
}

// TestMalformedSegmentTable ships raw derived-datatype messages whose
// segment table overflows, or falls short of, the payload their header
// declares. RecvAs must report each, and end its message: a well-formed
// message from another rank still matches afterwards, and the session is
// at rest. Each malformed message is the last on its connection, so a
// receive lease it leaked is reported by the check instead of wedging a
// later receive.
func TestMalformedSegmentTable(t *testing.T) {
	cs := comms(t, 4, "tcp")
	const tag = 3
	// raw sends rank c's message to rank 0: a header declaring n payload
	// bytes and the table, then the segments the receiver reads before it
	// finds the table inconsistent.
	raw := func(c *Comm, n int, table, segs []int) error {
		wire, err := c.wireTag(tag)
		if err != nil {
			return err
		}
		return c.m.ch.Send(c.actor, c.nodes[0], func(conn *core.Connection) error {
			var hdr [msgHdrSize]byte
			putHdr(hdr[:], wire, n, len(table))
			tb := make([]byte, 4*len(table))
			for i, k := range table {
				binary.LittleEndian.PutUint32(tb[4*i:], uint32(k))
			}
			for _, b := range [][]byte{hdr[:], tb} {
				if err := conn.Pack(b, core.SendSafer, core.ReceiveExpress); err != nil {
					return err
				}
			}
			for _, k := range segs {
				if err := conn.Pack(make([]byte, k), core.SendCheaper, core.ReceiveCheaper); err != nil {
					return err
				}
			}
			return nil
		})
	}
	sent := make(chan error, 2)
	go func() { sent <- raw(cs[1], 8, []int{8, 8}, []int{8}) }() // the second segment overflows
	go func() { sent <- raw(cs[2], 16, []int{8}, []int{8}) }()   // one segment, 8 bytes short
	r := cs[0]
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		_, err := r.RecvAs(r.actor, AnySource, tag, make([]byte, 16))
		switch {
		case err == nil:
			t.Fatal("a malformed segment table was delivered")
		case strings.Contains(err.Error(), "segment table overflows the payload"):
			got["overflow"] = true
		case strings.Contains(err.Error(), "segment table short of the payload"):
			got["short"] = true
		default:
			t.Fatalf("receive %d: %v", i, err)
		}
	}
	if !got["overflow"] || !got["short"] {
		t.Fatalf("errors reported: %v, want overflow and short", got)
	}
	for i := 0; i < 2; i++ {
		if err := <-sent; err != nil {
			t.Fatalf("raw send: %v", err)
		}
	}

	payload := []byte("well-formed")
	go func() { sent <- cs[3].Send(0, tag, payload) }()
	buf := make([]byte, 16)
	st, err := r.RecvAs(r.actor, AnySource, tag, buf)
	if err != nil || st.Source != 3 || !bytes.Equal(buf[:st.Count], payload) {
		t.Fatalf("well-formed message after the malformed ones: %+v %q, %v", st, buf[:st.Count], err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if err := r.m.ch.Session().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
