package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The benchmark's own span recorder (choosing-metrics §4): spans are taken
// around the benchmark's calls into each layer's exported functions, never
// inside the library. Every goroutine of a workload owns one spanBuf with a
// preallocated array, so recording takes no lock and allocates nothing; a
// span that does not fit is counted as dropped, never grown into.

// spanKind names what a span covers.
type spanKind uint8

const (
	kOp   spanKind = iota // root: one workload operation
	kPeer                 // root on a peer goroutine (echo, sender, rank step)
	kBeginPacking
	kPackExpress
	kPackCheaper
	kEndPacking
	kBeginUnpacking
	kUnpackExpress
	kUnpackCheaper
	kEndUnpacking
	kFwdBeginPacking
	kFwdPack
	kFwdEndPacking
	kFwdBeginUnpacking
	kFwdUnpack
	kFwdEndUnpacking
	kAlltoallv
	kAllreduce
	kGather
	kSubmit
	kCQWait
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "peer",
	"core.BeginPacking", "core.Pack(express)", "core.Pack(cheaper)", "core.EndPacking",
	"core.BeginUnpacking", "core.Unpack(express)", "core.Unpack(cheaper)", "core.EndUnpacking",
	"fwd.BeginPacking", "fwd.Pack", "fwd.EndPacking",
	"fwd.BeginUnpacking", "fwd.Unpack", "fwd.EndUnpacking",
	"coll.Alltoallv", "coll.Allreduce", "coll.Gather",
	"core.Submit*", "core.CQ.Wait",
}

func (k spanKind) root() bool { return k == kOp || k == kPeer }

// span is one recorded interval: times are nanoseconds since the tracer's
// epoch, parent indexes the same spanBuf (-1 for a root), op is the
// identifier every span of one operation shares.
type span struct {
	start, end int64
	op         uint32
	parent     int32
	kind       spanKind
}

// spanBuf is one goroutine's recorder. All methods are nil-safe and no-ops
// while the buffer is off, so generator code records unconditionally.
type spanBuf struct {
	track   string
	epoch   time.Time
	on      atomic.Bool // set by the tracer between segments, read by the owning goroutine
	spans   []span
	cur     int32 // innermost open span, -1 when none
	op      uint32
	dropped int64
}

// begin opens a span under the innermost open one and returns its handle.
func (b *spanBuf) begin(k spanKind) int32 {
	if b == nil || !b.on.Load() {
		return -1
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	i := int32(len(b.spans))
	b.spans = append(b.spans, span{start: int64(time.Since(b.epoch)), op: b.op, parent: b.cur, kind: k})
	b.cur = i
	return i
}

// beginOp opens a root span and makes id the operation every span shares
// until the next root.
func (b *spanBuf) beginOp(k spanKind, id uint32) int32 {
	if b == nil || !b.on.Load() {
		return -1
	}
	b.op, b.cur = id, -1
	return b.begin(k)
}

// relabel gives the operation open since root its identifier once the peer
// side has learnt it (an echoer reads it from the header it received).
func (b *spanBuf) relabel(root int32, id uint32) {
	if root < 0 {
		return
	}
	for i := range b.spans[root:] {
		b.spans[int(root)+i].op = id
	}
	b.op = id
}

// end closes the span begin returned. A span still open when tracing is
// switched off (a peer goroutine parked in a receive between segments)
// stays open, and the summary and the trace file leave open spans out.
func (b *spanBuf) end(i int32) {
	if i < 0 || !b.on.Load() {
		return
	}
	s := &b.spans[i]
	s.end = int64(time.Since(b.epoch))
	b.cur = s.parent
}

// tracer owns the span buffers of one traced pass.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf preallocates one goroutine's recorder; call it in set-up only.
// A nil tracer hands out nil buffers: the untraced fast path.
func (t *tracer) buf(track string, capacity int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{track: track, epoch: t.epoch, spans: make([]span, 0, capacity), cur: -1}
	t.bufs = append(t.bufs, b)
	return b
}

// enable switches every buffer on or off between segments (never while a
// generator loop runs).
func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	for _, b := range t.bufs {
		b.on.Store(on)
	}
}

// kindStat is one span kind's aggregate over a traced pass.
type kindStat struct {
	count int64
	total int64 // ns inside the span
	self  int64 // ns inside the span and outside its children
}

func (s kindStat) meanSelfUS() float64 { return ratio(float64(s.self), float64(s.count)) / 1e3 }

// spanSummary is what the per-layer metrics read out of a traced pass.
type spanSummary struct {
	kinds   [numSpanKinds]kindStat
	spans   int64
	dropped int64
	opWall  []float64 // root kOp durations, µs, sorted
	// worst is the largest amount by which a root's children overran it;
	// 0 proves every op's child spans plus self time sum to its root.
	worst int64
}

// summarize computes self times: a span's duration minus the part its
// children cover (children of one goroutine never overlap).
func (t *tracer) summarize() spanSummary {
	var sum spanSummary
	if t == nil {
		return sum
	}
	for _, b := range t.bufs {
		sum.dropped += b.dropped
		sum.spans += int64(len(b.spans))
		self := make([]int64, len(b.spans))
		for i, s := range b.spans {
			if s.end == 0 {
				continue
			}
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range b.spans {
			if s.end == 0 {
				continue
			}
			k := &sum.kinds[s.kind]
			k.count++
			k.total += s.end - s.start
			k.self += self[i]
			if self[i] < -sum.worst {
				sum.worst = -self[i]
			}
			if s.kind == kOp {
				sum.opWall = append(sum.opWall, float64(s.end-s.start)/1e3)
			}
		}
	}
	sort.Float64s(sum.opWall)
	return sum
}

// maxTraceEvents caps the written file (about 100 bytes per event); the
// aggregates above always cover every recorded span.
const maxTraceEvents = 60000

// writeChrome writes the spans as Chrome trace-event JSON (one thread per
// goroutine, complete "X" events, µs timestamps). Each goroutine's share
// of the cap is cut at an operation boundary so every written op is whole.
func (t *tracer) writeChrome(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	share := maxTraceEvents / max(1, len(t.bufs))
	first := true
	sep := func() {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
	}
	num := make([]byte, 0, 32)
	for tid, b := range t.bufs {
		sep()
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, b.track)
		n := len(b.spans)
		if n > share {
			for n = share; n > 0 && !b.spans[n].kind.root(); n-- {
			}
		}
		for _, s := range b.spans[:n] {
			if s.end == 0 {
				continue
			}
			sep()
			w.WriteString(`{"name":"`)
			w.WriteString(spanNames[s.kind])
			w.WriteString(`","cat":"wall","ph":"X","pid":1,"tid":`)
			w.Write(strconv.AppendInt(num[:0], int64(tid), 10))
			w.WriteString(`,"ts":`)
			w.Write(strconv.AppendFloat(num[:0], float64(s.start)/1e3, 'f', 3, 64))
			w.WriteString(`,"dur":`)
			w.Write(strconv.AppendFloat(num[:0], float64(s.end-s.start)/1e3, 'f', 3, 64))
			w.WriteString(`,"args":{"op":`)
			w.Write(strconv.AppendUint(num[:0], uint64(s.op), 10))
			w.WriteString(`,"parent":`)
			w.Write(strconv.AppendInt(num[:0], int64(s.parent), 10))
			w.WriteString(`}}`)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
