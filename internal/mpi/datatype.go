package mpi

import (
	"encoding/binary"
	"fmt"

	"madeleine2/internal/core"
)

// Derived datatypes: non-contiguous memory layouts in the MPI style.
// A strided vector maps directly onto Madeleine's incremental message
// construction — one Pack per segment, zero sender-side gather copy, with
// the channel's aggregating BMMs coalescing the segments on the wire.
// That mapping is exactly why the paper argues MPI implementations should
// sit on an interface like Madeleine (§5.3.1).

// Datatype describes a memory layout as a list of (offset, length)
// segments relative to the start of a buffer.
type Datatype struct {
	segs []segment
}

type segment struct {
	off, len int
}

// Contiguous describes n consecutive bytes.
func Contiguous(n int) Datatype {
	if n <= 0 {
		return Datatype{}
	}
	return Datatype{segs: []segment{{0, n}}}
}

// Vector describes count blocks of blocklen bytes, the starts of
// consecutive blocks separated by stride bytes (MPI_Type_vector with byte
// granularity).
func Vector(count, blocklen, stride int) (Datatype, error) {
	if count < 0 || blocklen <= 0 || stride < blocklen {
		return Datatype{}, fmt.Errorf("mpi: bad vector type (count=%d blocklen=%d stride=%d)", count, blocklen, stride)
	}
	d := Datatype{}
	for i := 0; i < count; i++ {
		d.segs = append(d.segs, segment{off: i * stride, len: blocklen})
	}
	return d, nil
}

// Indexed describes arbitrary (offset, length) segments; offsets must be
// nondecreasing and non-overlapping.
func Indexed(offsets, lengths []int) (Datatype, error) {
	if len(offsets) != len(lengths) {
		return Datatype{}, fmt.Errorf("mpi: indexed type needs matching offsets and lengths")
	}
	d := Datatype{}
	prevEnd := 0
	for i := range offsets {
		if lengths[i] <= 0 || offsets[i] < prevEnd {
			return Datatype{}, fmt.Errorf("mpi: bad indexed segment %d (off=%d len=%d)", i, offsets[i], lengths[i])
		}
		d.segs = append(d.segs, segment{off: offsets[i], len: lengths[i]})
		prevEnd = offsets[i] + lengths[i]
	}
	return d, nil
}

// Size reports the number of data bytes the type carries.
func (d Datatype) Size() int {
	n := 0
	for _, s := range d.segs {
		n += s.len
	}
	return n
}

// Extent reports the span of the type in the buffer.
func (d Datatype) Extent() int {
	if len(d.segs) == 0 {
		return 0
	}
	last := d.segs[len(d.segs)-1]
	return last.off + last.len
}

// Segments reports the segment count.
func (d Datatype) Segments() int { return len(d.segs) }

// SendType transmits buf's bytes selected by the datatype: the envelope
// and segment table travel express, then one Madeleine block per segment
// — no sender-side gather copy.
func (c *Comm) SendType(dst, tag int, buf []byte, d Datatype) error {
	node, wire, err := c.route(dst, tag)
	if err != nil {
		return err
	}
	if d.Extent() > len(buf) {
		return fmt.Errorf("mpi: datatype extent %d exceeds the buffer (%d bytes)", d.Extent(), len(buf))
	}
	c.actor.Advance(chMadOverhead)
	return c.m.ch.Send(c.actor, node, func(conn *core.Connection) error {
		var hdr [msgHdrSize]byte
		if err := conn.Pack(putHdr(hdr[:], wire, d.Size(), len(d.segs)), core.SendSafer, core.ReceiveExpress); err != nil {
			return err
		}
		table := make([]byte, 4*len(d.segs))
		for i, s := range d.segs {
			binary.LittleEndian.PutUint32(table[4*i:], uint32(s.len))
		}
		if err := conn.Pack(table, core.SendSafer, core.ReceiveExpress); err != nil {
			return err
		}
		for _, s := range d.segs {
			if err := conn.Pack(buf[s.off:s.off+s.len], core.SendCheaper, core.ReceiveCheaper); err != nil {
				return err
			}
		}
		return nil
	})
}

// RecvType receives a message matching (src, tag) and scatters its bytes
// into buf according to the datatype. The sender's type signature (the
// sequence of segment lengths' total) must carry at least Size() bytes.
func (c *Comm) RecvType(src, tag int, buf []byte, d Datatype) (Status, error) {
	if d.Extent() > len(buf) {
		return Status{}, fmt.Errorf("mpi: datatype extent %d exceeds the buffer (%d bytes)", d.Extent(), len(buf))
	}
	tmp := make([]byte, d.Size())
	st, err := c.Recv(src, tag, tmp)
	if err != nil {
		return st, err
	}
	if st.Count != d.Size() {
		return st, fmt.Errorf("mpi: type size mismatch: got %d bytes, type holds %d", st.Count, d.Size())
	}
	off := 0
	for _, s := range d.segs {
		copy(buf[s.off:s.off+s.len], tmp[off:off+s.len])
		off += s.len
	}
	return st, nil
}
