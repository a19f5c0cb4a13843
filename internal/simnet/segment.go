package simnet

import (
	"fmt"
	"sync"
)

// Segment is an exported memory region in the SCI style: the owning node
// creates it; remote nodes connect and write into it with PIO; the owner
// observes writes by polling (modeled as blocking on the segment's write
// records). Data is real shared memory — a remote Write lands actual bytes
// that the owner later copies out — while the write-visible time is a
// virtual stamp computed by the writing driver.
type Segment struct {
	id    uint32
	owner *Adapter // exporting adapter; nil for bare NewSegment segments
	mu    sync.Mutex
	buf   []byte
	recs  *Queue[WriteRecord]
}

// WriteRecord describes one remote write, in order of visibility.
type WriteRecord struct {
	Off    int
	Len    int
	Inject int64 // vclock.Time
	Arrive int64 // vclock.Time: write fully visible to the owner
	Tag    uint64
}

// NewSegment allocates a size-byte segment.
func NewSegment(id uint32, size int) *Segment {
	return &Segment{id: id, buf: make([]byte, size), recs: NewQueue[WriteRecord]()}
}

// NewSegmentOver exports buf itself as a segment: remote writes land
// directly in the caller's memory. This is the zero-copy receive primitive
// an RDMA-style driver builds registered regions from — the segment does
// not own the bytes, the registering application does.
func NewSegmentOver(id uint32, buf []byte) *Segment {
	return &Segment{id: id, buf: buf, recs: NewQueue[WriteRecord]()}
}

// ID reports the segment identifier.
func (s *Segment) ID() uint32 { return s.id }

// Size reports the segment length in bytes.
func (s *Segment) Size() int { return len(s.buf) }

// Write copies data into the segment at off and posts the write record.
// It panics on out-of-range writes: segment layout is driver-owned and a
// bad offset is a driver bug, the simulated analogue of corrupting a
// mapped region. Writes crossing the fabric into an adapter-exported
// segment pass through the owner's fault machinery — the segment is the
// receive side of an SCI-style interconnect, so this is where a fault
// plan strikes PIO traffic.
func (s *Segment) Write(off int, data []byte, rec WriteRecord) {
	if a := s.owner; a != nil {
		data = a.corruptOnce(data)
		if fs := a.faults.Load(); fs != nil {
			var extra int64
			data, extra = fs.strike(data, rec.Inject)
			rec.Arrive += extra
		}
	}
	s.mu.Lock()
	if off < 0 || off+len(data) > len(s.buf) {
		s.mu.Unlock()
		panic(fmt.Sprintf("simnet: segment %d write [%d,%d) out of range 0..%d",
			s.id, off, off+len(data), len(s.buf)))
	}
	copy(s.buf[off:], data)
	s.mu.Unlock()
	rec.Off, rec.Len = off, len(data)
	s.recs.Push(rec)
}

// Poll blocks for the next write record, in visibility order. ok is false
// once the segment has been released and drained.
func (s *Segment) Poll() (WriteRecord, bool) { return s.recs.Pop() }

// Read copies len(dst) bytes starting at off out of the segment.
func (s *Segment) Read(off int, dst []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < 0 || off+len(dst) > len(s.buf) {
		panic(fmt.Sprintf("simnet: segment %d read [%d,%d) out of range 0..%d",
			s.id, off, off+len(dst), len(s.buf)))
	}
	copy(dst, s.buf[off:])
}

// Window returns the n bytes at off in place, without the copy Read makes.
// Only a range no writer targets meanwhile may be read through it.
func (s *Segment) Window(off, n int) []byte {
	if off < 0 || n < 0 || off+n > len(s.buf) {
		panic(fmt.Sprintf("simnet: segment %d window [%d,%d) out of range 0..%d",
			s.id, off, off+n, len(s.buf)))
	}
	return s.buf[off : off+n : off+n]
}

// Release closes the segment's record stream.
func (s *Segment) Release() { s.recs.Close() }

// segKey identifies an exported segment on an adapter.

// CreateSegment exports a new segment with the given id on the adapter.
// Creating a duplicate id is a driver bug and panics.
func (a *Adapter) CreateSegment(id uint32, size int) *Segment {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.segments == nil {
		a.segments = make(map[uint32]*Segment)
	}
	if _, dup := a.segments[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate segment %d on node %d/%s", id, a.node.id, a.network))
	}
	s := NewSegment(id, size)
	s.owner = a
	a.segments[id] = s
	return s
}

// CreateSegmentOver exports the caller's buf as segment id on the adapter,
// the registered-memory analogue of CreateSegment. Duplicate ids panic.
func (a *Adapter) CreateSegmentOver(id uint32, buf []byte) *Segment {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.segments == nil {
		a.segments = make(map[uint32]*Segment)
	}
	if _, dup := a.segments[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate segment %d on node %d/%s", id, a.node.id, a.network))
	}
	s := NewSegmentOver(id, buf)
	s.owner = a
	a.segments[id] = s
	return s
}

// RemoveSegment withdraws an exported segment so its id can be reused —
// the deregistration half of CreateSegmentOver's lifecycle. The segment's
// record stream is closed; a peer holding a stale *Segment can still
// write real bytes (the simulated analogue of DMA into unpinned memory),
// which is exactly the hazard drivers must fence with their own
// registration checks. Removing an id that is not exported is a no-op.
func (a *Adapter) RemoveSegment(id uint32) {
	a.mu.Lock()
	s := a.segments[id]
	delete(a.segments, id)
	a.mu.Unlock()
	if s != nil {
		s.Release()
	}
}

// ConnectSegment resolves a segment exported by the idx-th adapter of
// dstNode on this adapter's network — the SCIConnectSegment analogue.
func (a *Adapter) ConnectSegment(dstNode, idx int, id uint32) (*Segment, error) {
	peer, err := a.Peer(dstNode, idx)
	if err != nil {
		return nil, err
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	s := peer.segments[id]
	if s == nil {
		return nil, fmt.Errorf("simnet: node %d/%s has no segment %d", dstNode, a.network, id)
	}
	return s, nil
}
