package fwd

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodeHeader feeds arbitrary blocks to both header decoders. A
// gateway knows nothing about the messages to expect (§6.1), so the
// decoders are where hostile bytes first meet the library: they must never
// panic, must refuse a block of the wrong length, with a damaged magic or
// (reliable encoding) failing its own checksum, must accept every other
// block, and whatever they accept must encode back to the same bytes.
func FuzzDecodeHeader(f *testing.F) {
	// Seeds: the packets TestGatewayFates crafts, in both encodings —
	// well-formed, magic damaged, length beyond the MTU, payload CRC off.
	payload := []byte("fate")
	good := header{Origin: 0, Dst: 1, Seq: 3, Len: len(payload), Flags: flagFirst | flagLast,
		CRC: checksum(payload), Trace: 7<<32 | 1, Hop: 2, LSeq: 1001}
	long, crc := good, good
	long.Len = fateMTU + 1
	crc.CRC ^= 1
	for _, h := range []header{good, long, crc} {
		f.Add(h.encode(new(hdrBuf)))
		f.Add(h.encodeR(new(hdrBuf)))
	}
	for _, hb := range [][]byte{good.encode(new(hdrBuf)), good.encodeR(new(hdrBuf))} {
		hb[21] ^= 0xff // inside the magic word
		f.Add(hb)
	}

	codecs := []struct {
		name   string
		size   int
		decode func([]byte) (header, error)
		encode func(header, *hdrBuf) []byte
	}{
		{"base", hdrSize, decodeHeader, header.encode},
		{"reliable", rhdrSize, decodeHeaderR, header.encodeR},
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range codecs {
			sound := len(b) == c.size && binary.LittleEndian.Uint32(b[20:]) == hdrMagic
			if sound && c.size == rhdrSize {
				sound = crc32.ChecksumIEEE(b[:hdrSize+4]) == binary.LittleEndian.Uint32(b[hdrSize+4:])
			}
			h, err := c.decode(b)
			if sound != (err == nil) {
				t.Fatalf("%s: block %x sound=%v, decode error %v", c.name, b, sound, err)
			}
			if err == nil && !bytes.Equal(c.encode(h, new(hdrBuf)), b) {
				t.Fatalf("%s: block %x decoded to %+v, which encodes to %x", c.name, b, h, c.encode(h, new(hdrBuf)))
			}
		}
	})
}
