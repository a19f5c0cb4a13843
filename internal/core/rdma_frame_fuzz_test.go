package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzRdmaDecodeFrame feeds arbitrary bytes to the rdma control-frame
// decoder, which reads whatever a faulty fabric left in a ring slot. It
// must never panic; a frame it accepts must encode back to the same 16
// bytes; and every single-bit flip of a well-formed frame, the one built
// from the fuzzed kind, seq and val included, must be refused.
func FuzzRdmaDecodeFrame(f *testing.F) {
	for _, fr := range []struct {
		kind     byte
		seq, val uint32
		size     int
	}{
		{rdmaRTS, 1, 4096, rdmaFrameSize}, {rdmaCTS, 1, 0, rdmaFrameSize},
		{rdmaFIN, 7, 0, rdmaFrameSize}, {rdmaACK, 7, 0, 16},
		{rdmaNACK, 8, 1, 16}, {rdmaCredit, 0, 16, 16},
	} {
		b := make([]byte, fr.size)
		rdmaEncodeFrame(b, fr.kind, fr.seq, fr.val)
		f.Add(b, fr.kind, fr.seq, fr.val)
		damaged := bytes.Clone(b)
		damaged[5] ^= 0x10
		f.Add(damaged, fr.kind, fr.seq, fr.val)
	}
	// A set pad byte under a checksum that covers it: intact, but not a
	// frame the encoder writes.
	odd := make([]byte, 16)
	rdmaEncodeFrame(odd, rdmaRTS, 2, 64)
	odd[3] = 1
	binary.LittleEndian.PutUint32(odd[12:], crc32.ChecksumIEEE(odd[:12]))
	f.Add(odd, rdmaRTS, uint32(2), uint32(64))
	f.Add([]byte{0xAD, 0x02}, byte(0), uint32(0), uint32(0))

	f.Fuzz(func(t *testing.T, raw []byte, kind byte, seq, val uint32) {
		if k, s, v, ok := rdmaDecodeFrame(raw); ok {
			var re [16]byte
			rdmaEncodeFrame(re[:], k, s, v)
			if !bytes.Equal(re[:], raw[:16]) {
				t.Fatalf("accepted % x, which encodes back as % x", raw[:16], re)
			}
			rejectsFlips(t, raw[:16])
		}
		var fr [16]byte
		rdmaEncodeFrame(fr[:], kind, seq, val)
		if k, s, v, ok := rdmaDecodeFrame(fr[:]); !ok || k != kind || s != seq || v != val {
			t.Fatalf("frame (%d, %d, %d) decodes as (%d, %d, %d, %v)", kind, seq, val, k, s, v, ok)
		}
		rejectsFlips(t, fr[:])
	})
}

// rejectsFlips fails t when the decoder accepts frame with any one bit
// flipped.
func rejectsFlips(t *testing.T, frame []byte) {
	t.Helper()
	b := bytes.Clone(frame)
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			b[i] ^= 1 << bit
			if _, _, _, ok := rdmaDecodeFrame(b); ok {
				t.Fatalf("% x with byte %d bit %d flipped is accepted", frame, i, bit)
			}
			b[i] ^= 1 << bit
		}
	}
}
