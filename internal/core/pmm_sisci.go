package core

import (
	"encoding/binary"
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/vclock"
)

// sisciPMM is the SISCI/SCI protocol module (§5.2.1). Data travels through
// a per-connection ring of slots inside an SCI segment exported by the
// receiver; the sender PIO-writes slots and the receiver polls. Consumed
// slots are credited back through a small ack segment exported by the
// sender. Three PIO transmission modules are active — an optimized
// short-message TM, the regular PIO TM, and the adaptive dual-buffering TM
// for blocks above 8 kB — plus the DMA TM, implemented but disabled by
// default because the D310's DMA tops out at 35 MB/s.
type sisciPMM struct {
	dev        *sisci.Dev
	chanID     int
	dmaEnabled bool
	dualOff    bool // ablation: disable the adaptive dual-buffering TM
	short      TM
	pio        TM
	dual       TM
	dma        TM
}

const (
	sciSlotSize  = 8 << 10 // one ring slot; also the dual-buffering chunk
	sciRingSlots = 32
)

func newSISCIPMM(node *simnet.Node, adapter, chanID int, dma, dualOff bool) (PMM, error) {
	dev, err := sisci.Attach(node, adapter)
	if err != nil {
		return nil, err
	}
	p := &sisciPMM{dev: dev, chanID: chanID, dmaEnabled: dma, dualOff: dualOff}
	p.short = NewStaticTM(&sciSlot{p: p, name: "sisci-short", size: model.SISCIShortMax, link: model.SISCIShort})
	p.pio = NewStaticTM(&sciSlot{p: p, name: "sisci-pio", size: sciSlotSize, link: model.SISCIPIO})
	p.dual = NewDynamicTM(&sciStream{p: p, name: "sisci-dual", link: model.SISCIDual, dma: false})
	p.dma = NewDynamicTM(&sciStream{p: p, name: "sisci-dma", link: model.SISCIDMA, dma: true})
	return p, nil
}

func (p *sisciPMM) Name() string { return "sisci" }

// TMs lists all four modules, the configuration-disabled ones included:
// pre-registration is about names the Switch step could ever pick.
func (p *sisciPMM) TMs() []TM { return []TM{p.short, p.pio, p.dual, p.dma} }

func (p *sisciPMM) Select(n int, sm SendMode, rm RecvMode) TM {
	switch {
	case p.dmaEnabled && n >= model.SISCIDualMin:
		return p.dma
	case n >= model.SISCIDualMin && !p.dualOff:
		return p.dual
	case n < model.SISCIShortMax:
		return p.short
	default:
		// Large blocks with dual-buffering disabled stream through the
		// regular PIO TM slot by slot (the statCopy BMM splits them).
		return p.pio
	}
}

func (p *sisciPMM) Link(n int) model.Link { return p.Select(n, SendCheaper, ReceiveCheaper).Link(n) }

// Segment id scheme: unique per owning adapter.
func (p *sisciPMM) ringID(peer int) uint32 { return uint32(p.chanID)<<16 | uint32(peer)<<1 }
func (p *sisciPMM) ackID(peer int) uint32  { return uint32(p.chanID)<<16 | uint32(peer)<<1 | 1 }

// sciConn is the per-connection SISCI state, partitioned by direction so a
// concurrent send and receive never share a mutable field: the send path
// (under the send lease) owns wSlot and drains ack; the receive path
// (under the receive lease) writes ackOut. The credit window over the ring
// slots, shared by all four TMs, is split the same way.
type sciConn struct {
	ring *sisci.LocalSegment // incoming data from the peer
	ack  *sisci.LocalSegment // incoming slot credits for our sends

	out    *sisci.RemoteSegment // the peer's ring, mapped
	ackOut *sisci.RemoteSegment // the peer's ack segment, mapped

	wSlot int // next slot to write (send lease)
	slots *creditWindow
}

func (p *sisciPMM) PreConnect(cs *ConnState) error {
	st := &sciConn{slots: newCreditWindow(sciRingSlots)}
	st.ring = p.dev.CreateSegment(p.ringID(cs.Remote()), sciSlotSize*sciRingSlots)
	st.ack = p.dev.CreateSegment(p.ackID(cs.Remote()), 64)
	cs.Priv = st
	return nil
}

func (p *sisciPMM) Connect(cs *ConnState) error {
	st := cs.Priv.(*sciConn)
	var err error
	// The peer's ring for data we send carries our rank in its id.
	st.out, err = p.dev.ConnectSegment(cs.Remote(), p.dev.Adapter().Index(), p.ringID(cs.Local()))
	if err != nil {
		return err
	}
	st.ackOut, err = p.dev.ConnectSegment(cs.Remote(), p.dev.Adapter().Index(), p.ackID(cs.Local()))
	return err
}

func sciState(cs *ConnState) *sciConn { return cs.Priv.(*sciConn) }

// sciAckLink is the cost of a slot-credit PIO write (a header-sized write).
var sciAckLink = model.SISCIShort

// nextSlot claims the next slot of the peer's ring for one ≤ slot-sized
// chunk, blocking on slot credits when the ring is full, and returns its
// offset in the ring segment.
func (p *sisciPMM) nextSlot(a *vclock.Actor, cs *ConnState) (int, error) {
	st := sciState(cs)
	if err := st.slots.acquire(a, cs, p); err != nil {
		return 0, err
	}
	if err := cs.Announce(); err != nil {
		return 0, err
	}
	off := st.wSlot * sciSlotSize
	st.wSlot = (st.wSlot + 1) % sciRingSlots
	return off, nil
}

// readSlot blocks for the next incoming slot and returns its payload where
// it landed, in the ring: the slot is the protocol buffer, the receiver's
// until it credits the slot back.
func (p *sisciPMM) readSlot(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	st := sciState(cs)
	off, n, _, ok := st.ring.WaitWrite(a)
	if !ok {
		return nil, ErrClosed
	}
	return st.ring.Window(off, n), nil
}

// A grant is an 8-byte PIO write into the sender's ack segment, its size
// riding the write's tag.
func (p *sisciPMM) awaitGrant(a *vclock.Actor, cs *ConnState) (int, error) {
	_, _, tag, ok := sciState(cs).ack.WaitWrite(a)
	if !ok {
		return 0, ErrClosed
	}
	return int(tag), nil
}

func (p *sisciPMM) returnCredits(a *vclock.Actor, cs *ConnState, n int) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	sciState(cs).ackOut.MemCpy(a, 0, b[:], sciAckLink, uint64(n))
	return nil
}

// --- slot TMs (short-message and regular PIO) ---

// sciSlot copies aggregated user data into ring slots: a static-buffer
// TM whose protocol buffers are the ring slots themselves.
type sciSlot struct {
	p    *sisciPMM
	name string
	size int
	link model.Link
}

func (t *sciSlot) Name() string          { return t.name }
func (t *sciSlot) Link(n int) model.Link { return t.link }
func (t *sciSlot) StaticSize() int       { return t.size }

func (t *sciSlot) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	if len(data) > sciSlotSize {
		return fmt.Errorf("core: sisci chunk %d exceeds slot size %d", len(data), sciSlotSize)
	}
	off, err := t.p.nextSlot(a, cs)
	if err != nil {
		return err
	}
	sciState(cs).out.MemCpy(a, off, data, t.link, uint64(len(data)))
	return nil
}

func (t *sciSlot) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	return t.p.readSlot(a, cs)
}

func (t *sciSlot) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	return sciState(cs).slots.release(a, cs, t.p)
}

// --- streaming TMs (dual-buffering PIO and DMA) ---

// sciStream moves large dynamic buffers by chunking them through the
// ring. The PIO variant is the paper's adaptive dual-buffering algorithm:
// staging alternates between two buffers so the copy-in overlaps the SCI
// transfer, which its calibrated link model reflects; the chunk fixed cost
// applies once per message (pipeline fill). The DMA variant posts chunks
// to the NIC's DMA engine instead.
type sciStream struct {
	p    *sisciPMM
	name string
	link model.Link
	dma  bool
}

func (t *sciStream) Name() string          { return t.name }
func (t *sciStream) Link(n int) model.Link { return t.link }

func (t *sciStream) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	link := t.link
	for off := 0; off < len(data); off += sciSlotSize {
		chunk := data[off:min(off+sciSlotSize, len(data))]
		slot, err := t.p.nextSlot(a, cs)
		if err != nil {
			return err
		}
		if t.dma {
			// DMA: the CPU only posts descriptors; the engine streams.
			sciState(cs).out.DMAPost(a, slot, chunk, uint64(len(chunk)))
		} else {
			sciState(cs).out.MemCpy(a, slot, chunk, link, uint64(len(chunk)))
		}
		link.Fixed = 0 // pipeline filled: later chunks stream
	}
	return nil
}

func (t *sciStream) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	for off := 0; off < len(dst); {
		chunk, err := t.p.readSlot(a, cs)
		if err != nil {
			return err
		}
		if off+len(chunk) > len(dst) {
			return asymmetryError(fmt.Sprintf("sisci stream block on %s", cs.ch.name), off+len(chunk), len(dst))
		}
		copy(dst[off:], chunk)
		off += len(chunk)
		if err := sciState(cs).slots.release(a, cs, t.p); err != nil {
			return err
		}
	}
	return nil
}
