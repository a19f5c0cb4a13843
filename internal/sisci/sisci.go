// Package sisci re-implements the contract of the Dolphin SISCI API for SCI
// (Scalable Coherent Interface) on top of the simulated fabric, as used by
// the paper's SISCI PMM (§5.2.1).
//
// The programming model is shared segments: a node creates and exports a
// memory segment; remote nodes connect to it and map it, after which a
// remote write is a plain memcpy into the mapped window (PIO), made visible
// to the owner in write order. The owner observes incoming data by polling.
// A DMA mode moves data with the NIC as bus master instead of the CPU; on
// the D310 boards of the paper it tops out at 35 MB/s, which is why the DMA
// transmission module exists but is disabled by default.
//
// The transfer-method cost model (short-message PIO, regular PIO, adaptive
// dual-buffering) is selected by the caller — Madeleine's transmission
// modules — and passed to MemCpy; the driver provides the mechanics
// (real shared memory, ordering, polling) and the virtual-time stamping.
package sisci

import (
	"fmt"

	"madeleine2/internal/model"
	"madeleine2/internal/simnet"
	"madeleine2/internal/vclock"
)

// Network is the fabric name SCI adapters attach to.
const Network = "sci"

// Dev is one node's access to the SISCI driver on an SCI adapter.
type Dev struct {
	adapter *simnet.Adapter
	dma     *vclock.Resource
}

// Attach opens SISCI on the idx-th SCI adapter of node n.
func Attach(n *simnet.Node, idx int) (*Dev, error) {
	a, err := n.Adapter(Network, idx)
	if err != nil {
		return nil, fmt.Errorf("sisci: %w", err)
	}
	return &Dev{
		adapter: a,
		dma:     vclock.NewResource(fmt.Sprintf("n%d/sci%d/dma", n.ID(), idx)),
	}, nil
}

// Adapter returns the underlying simulated NIC.
func (d *Dev) Adapter() *simnet.Adapter { return d.adapter }

// Node reports the rank of the device's host.
func (d *Dev) Node() int { return d.adapter.Node().ID() }

// LocalSegment is a segment exported by this node; remote nodes write into
// it and the owner polls for the writes.
type LocalSegment struct {
	seg *simnet.Segment
}

// CreateSegment exports a new segment. Duplicate ids panic (driver bug).
func (d *Dev) CreateSegment(id uint32, size int) *LocalSegment {
	return &LocalSegment{seg: d.adapter.CreateSegment(id, size)}
}

// WaitWrite blocks for the next remote write into the segment, synchronizes
// the actor's clock to the write's visibility time, and describes the
// write. ok is false once the segment has been released and drained.
func (s *LocalSegment) WaitWrite(a *vclock.Actor) (off, n int, tag uint64, ok bool) {
	rec, ok := s.seg.Poll()
	if !ok {
		return 0, 0, 0, false
	}
	a.Sync(vclock.Time(rec.Arrive))
	return rec.Off, rec.Len, rec.Tag, true
}

// Read copies segment contents out at off. The copy-out cost of pipelined
// receive paths is folded into the transfer-method models (dual-buffering
// overlaps it with the incoming stream), so Read itself charges no time.
func (s *LocalSegment) Read(off int, dst []byte) { s.seg.Read(off, dst) }

// Window exposes n bytes of the segment at off in place — the owner reading
// its own exported memory. The caller's protocol keeps remote writers off
// the window while it reads (a ring slot not yet credited back).
func (s *LocalSegment) Window(off, n int) []byte { return s.seg.Window(off, n) }

// Release closes the segment's write stream.
func (s *LocalSegment) Release() { s.seg.Release() }

// Size reports the segment size.
func (s *LocalSegment) Size() int { return s.seg.Size() }

// RemoteSegment is a mapped view of a segment exported by another node.
type RemoteSegment struct {
	dev *Dev
	seg *simnet.Segment
}

// ConnectSegment maps the segment id exported by the idx-th SCI adapter of
// dstNode (SCIConnectSegment + SCIMapRemoteSegment).
func (d *Dev) ConnectSegment(dstNode, idx int, id uint32) (*RemoteSegment, error) {
	s, err := d.adapter.ConnectSegment(dstNode, idx, id)
	if err != nil {
		return nil, fmt.Errorf("sisci: %w", err)
	}
	return &RemoteSegment{dev: d, seg: s}, nil
}

// Size reports the mapped segment's size.
func (r *RemoteSegment) Size() int { return r.seg.Size() }

// MemCpy performs a PIO write of data into the mapped segment at off, with
// the cost model chosen by the calling transmission module (short, regular
// PIO, or a dual-buffering chunk with Fixed zeroed after the first chunk).
// The CPU is busy for the whole PIO transfer; the write becomes visible to
// the owner when the last byte lands. It returns the visibility time.
func (r *RemoteSegment) MemCpy(a *vclock.Actor, off int, data []byte, link model.Link, tag uint64) vclock.Time {
	start, _ := r.dev.adapter.TxEngine().Acquire(a.Now(), link.ByteTime(len(data)))
	arrive := start + link.Time(len(data))
	a.Sync(arrive) // PIO: the CPU drives every byte
	r.seg.Write(off, data, simnet.WriteRecord{
		Inject: int64(start),
		Arrive: int64(arrive),
		Tag:    tag,
	})
	return arrive
}

// DMAPost queues a DMA transfer of data into the mapped segment at off and
// returns immediately after the setup cost; the returned time is the
// transfer's completion (visibility) time. The D310's DMA engine moves
// data at model.SISCIDMA rates.
func (r *RemoteSegment) DMAPost(a *vclock.Actor, off int, data []byte, tag uint64) vclock.Time {
	a.Advance(model.SISCIDMA.Fixed) // descriptor setup; CPU is then free
	start, end := r.dev.dma.Acquire(a.Now(), model.SISCIDMA.ByteTime(len(data)))
	r.seg.Write(off, data, simnet.WriteRecord{
		Inject: int64(start),
		Arrive: int64(end),
		Tag:    tag,
	})
	return end
}
