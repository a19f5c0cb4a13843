package coll

import (
	"encoding/binary"

	"madeleine2/internal/vclock"
)

// Every collective message travels as a 16-byte express envelope plus an
// optional payload block. The envelope is self-describing: seq is the
// communicator's collective counter (every rank calls collectives in the
// same order, so both ends agree), origin the sender's communicator rank,
// tag the schedule's matching tag and length the payload size. The
// receiver matches (seq, origin, tag) against its registered schedule
// expectations and validates length — a mismatched block surfaces as a
// typed error instead of tearing the output layout.
const wireHdrSize = 16

type wireHdr struct {
	seq    uint32
	origin int32
	tag    uint32
	length uint32
}

// encodeInto writes the envelope into b, which the caller owns for as long
// as the transport may read it, and returns it as the block to pack.
func (h wireHdr) encodeInto(b *[wireHdrSize]byte) []byte {
	binary.LittleEndian.PutUint32(b[0:], h.seq)
	binary.LittleEndian.PutUint32(b[4:], uint32(h.origin))
	binary.LittleEndian.PutUint32(b[8:], h.tag)
	binary.LittleEndian.PutUint32(b[12:], h.length)
	return b[:]
}

func decodeWireHdr(b []byte) wireHdr {
	return wireHdr{
		seq:    binary.LittleEndian.Uint32(b[0:]),
		origin: int32(binary.LittleEndian.Uint32(b[4:])),
		tag:    binary.LittleEndian.Uint32(b[8:]),
		length: binary.LittleEndian.Uint32(b[12:]),
	}
}

// event is one transport notification consumed by the executor: a send
// completion (token identifies which), an arrived message, or a failure.
type event struct {
	send    bool
	token   int
	hdr     wireHdr
	data    []byte // recv payload in a spare, when not claimed into a registered sink
	claimed bool   // payload landed directly in the expectation's sink
	stamp   vclock.Time
	err     error
}
