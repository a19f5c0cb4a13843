// Package fwd implements Madeleine II's inter-device data-forwarding
// extension for clusters of clusters (§6 of the paper): virtual channels
// spanning sequences of real channels, a Generic Transmission Module that
// makes messages self-described and fragments them at a route-wide MTU,
// and a dual-buffered two-thread forwarding pipeline on gateway nodes whose
// steady-state period reproduces the paper's §6.2 analysis (software
// overhead, PCI-bus saturation, and the DMA-over-PIO priority asymmetry).
package fwd

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// hdrSize is the Generic TM's per-packet self-description header: origin,
// final destination, sequence number, payload length, flags, payload
// checksum, distributed-trace context and magic. Within homogeneous
// Madeleine II messages need no self-description (§2.2); across gateways
// it is mandatory, because the gateway knows nothing about the messages
// to expect (§6.1). The checksum is this implementation's integrity
// guard: simulated interconnects are reliable by construction, so
// corruption can only mean a bug or an injected fault — either way it
// must be caught, not forwarded. The trace context (message trace ID +
// hop count, incremented per gateway relay) rides every packet so spans
// recorded in different clusters stitch into one end-to-end timeline
// (trace.Merge).
const hdrSize = 40

// Packet flags.
const (
	flagFirst = 1 << iota // first packet of a message
	flagLast              // last packet of a message
	flagAck               // control frame: positive acknowledgment (reliable mode)
	flagNack              // control frame: retransmit request (reliable mode)
	flagAbort             // with flagLast: the sender aborted the message
)

// header describes one Generic-TM packet.
type header struct {
	Origin int    // message source rank
	Dst    int    // final destination rank
	Seq    uint32 // packet sequence number within the message
	Len    int    // payload bytes
	Flags  uint32
	CRC    uint32 // payload checksum
	Trace  uint64 // distributed trace ID of the carried message (0 = untraced)
	Hop    uint32 // relay count: 0 at the sender, +1 per gateway
	LSeq   uint32 // link-level sequence (reliable mode only, not in the base encoding)
}

// hdrBuf is a header block's backing store, large enough for either
// encoding. Whoever sends owns one for as long as it sends (a VC message, a
// pipeline's send thread, a daemon for its verdicts): the block is on the
// wire, copied or sent, when the real channel's EndPacking returns.
type hdrBuf [rhdrSize]byte

// encode serializes the header into the first hdrSize bytes of buf.
func (h header) encode(buf *hdrBuf) []byte {
	b := buf[:hdrSize]
	binary.LittleEndian.PutUint32(b[0:], uint32(h.Origin))
	binary.LittleEndian.PutUint32(b[4:], uint32(h.Dst))
	binary.LittleEndian.PutUint32(b[8:], h.Seq)
	binary.LittleEndian.PutUint32(b[12:], uint32(h.Len))
	binary.LittleEndian.PutUint32(b[16:], h.Flags)
	binary.LittleEndian.PutUint32(b[20:], hdrMagic)
	binary.LittleEndian.PutUint32(b[24:], h.CRC)
	binary.LittleEndian.PutUint64(b[28:], h.Trace)
	binary.LittleEndian.PutUint32(b[36:], h.Hop)
	return b
}

// checksum computes a payload's CRC.
func checksum(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// hdrMagic sits mid-header (bytes 20-23): a single-byte corruption near
// the block's center — the common injected-fault shape — must surface as
// an unambiguous decode failure, never as a plausible field value that
// desynchronizes a non-reliable receiver.
const hdrMagic = 0x4d414432 // "MAD2"

// decodeHeader parses and validates a received header block.
func decodeHeader(b []byte) (header, error) {
	if len(b) != hdrSize {
		return header{}, fmt.Errorf("fwd: header block is %d bytes, want %d", len(b), hdrSize)
	}
	if binary.LittleEndian.Uint32(b[20:]) != hdrMagic {
		return header{}, fmt.Errorf("fwd: bad packet magic %#x", binary.LittleEndian.Uint32(b[20:]))
	}
	return header{
		Origin: int(binary.LittleEndian.Uint32(b[0:])),
		Dst:    int(binary.LittleEndian.Uint32(b[4:])),
		Seq:    binary.LittleEndian.Uint32(b[8:]),
		Len:    int(binary.LittleEndian.Uint32(b[12:])),
		Flags:  binary.LittleEndian.Uint32(b[16:]),
		CRC:    binary.LittleEndian.Uint32(b[24:]),
		Trace:  binary.LittleEndian.Uint64(b[28:]),
		Hop:    binary.LittleEndian.Uint32(b[36:]),
	}, nil
}

// rhdrSize is the reliable-mode header: the base self-description plus a
// link-level sequence number (duplicate detection across retransmits) and
// a checksum over the header bytes themselves, so a damaged header is
// detected rather than trusted. The base 40-byte encoding stays untouched
// for non-reliable channels — benchmark parity is a contract.
const rhdrSize = hdrSize + 8

// encodeR serializes the reliable-mode header into buf.
func (h header) encodeR(buf *hdrBuf) []byte {
	b := buf[:]
	h.encode(buf)
	binary.LittleEndian.PutUint32(b[hdrSize:], h.LSeq)
	binary.LittleEndian.PutUint32(b[hdrSize+4:], crc32.ChecksumIEEE(b[:hdrSize+4]))
	return b
}

// decodeHeaderR parses and validates a reliable-mode header block. Any
// damage — to the magic, the fields or the trailing header checksum —
// comes back as an error the receiver answers with a NACK.
func decodeHeaderR(b []byte) (header, error) {
	if len(b) != rhdrSize {
		return header{}, fmt.Errorf("fwd: reliable header block is %d bytes, want %d", len(b), rhdrSize)
	}
	if crc32.ChecksumIEEE(b[:hdrSize+4]) != binary.LittleEndian.Uint32(b[hdrSize+4:]) {
		return header{}, fmt.Errorf("fwd: header failed its own checksum")
	}
	h, err := decodeHeader(b[:hdrSize])
	if err != nil {
		return header{}, err
	}
	h.LSeq = binary.LittleEndian.Uint32(b[hdrSize:])
	return h, nil
}
