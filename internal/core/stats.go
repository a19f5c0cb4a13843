package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"madeleine2/internal/metrics"
)

// ChannelStats is a snapshot of a channel's traffic accounting on one
// process: messages, blocks and bytes per direction, Switch-step flush
// counts, and the per-transmission-module block histogram that shows which
// transfer methods the selection mechanism actually used.
//
// The snapshot is taken without stopping traffic: each counter is read
// atomically but independently, so a snapshot observed while actors are
// mid-message can be momentarily skewed across fields (e.g. BytesOut a
// block ahead of MessagesOut, or the TMBlocks histogram read an instant
// after the counters). Every field is exact once the channel quiesces;
// quiesce first when cross-field consistency matters.
type ChannelStats struct {
	MessagesOut, MessagesIn int64
	BlocksOut, BlocksIn     int64
	BytesOut, BytesIn       int64
	Commits, Checkouts      int64 // Switch-step flushes (TM changes)
	TMBlocks                map[string]int64

	// Asynchronous submission-path accounting: descriptors submitted and
	// completed on this channel's conversations, and how many completed
	// with an error. Sync wrapper traffic does not count here.
	AsyncSubmitted, AsyncCompleted, AsyncErrors int64
}

// String renders the snapshot compactly.
func (s ChannelStats) String() string {
	var tms []string
	for name, n := range s.TMBlocks {
		tms = append(tms, fmt.Sprintf("%s:%d", name, n))
	}
	sort.Strings(tms)
	out := fmt.Sprintf("out %d msgs/%d blocks/%d B, in %d msgs/%d blocks/%d B, switches %d/%d, tm {%s}",
		s.MessagesOut, s.BlocksOut, s.BytesOut,
		s.MessagesIn, s.BlocksIn, s.BytesIn,
		s.Commits, s.Checkouts, strings.Join(tms, " "))
	if s.AsyncSubmitted > 0 {
		out += fmt.Sprintf(", async %d/%d ops (%d errors)",
			s.AsyncCompleted, s.AsyncSubmitted, s.AsyncErrors)
	}
	return out
}

// chanStats is the channel's live accounting. Many actors mutate it
// concurrently (disjoint connections of one channel, full-duplex traffic
// on one connection), so every counter is an atomic — including the
// per-TM block histogram, one counter per TM number (Channel.tms), made
// when the channel is: a block costs one atomic add and no lookup.
type chanStats struct {
	messagesOut, messagesIn atomic.Int64
	blocksOut, blocksIn     atomic.Int64
	bytesOut, bytesIn       atomic.Int64
	commits, checkouts      atomic.Int64

	asyncSubmitted, asyncCompleted, asyncErrors atomic.Int64

	tmBlocks []atomic.Int64 // by TM number
}

// registerTMs makes one block counter per TM number; runs once, before
// any traffic.
func (cs *chanStats) registerTMs(n int) { cs.tmBlocks = make([]atomic.Int64, n) }

// packed counts an n-byte block sent through TM number tm.
func (cs *chanStats) packed(tm, n int) {
	cs.blocksOut.Add(1)
	cs.bytesOut.Add(int64(n))
	cs.tmBlocks[tm].Add(1)
}

func (cs *chanStats) unpacked(n int) {
	cs.blocksIn.Add(1)
	cs.bytesIn.Add(int64(n))
}

// chanMetrics caches the channel's handles into the session registry so
// the asynchronous hot paths bump always-on metrics with one atomic add
// and no map lookup. Handles stay nil on channels built outside
// Session.NewChannel (white-box tests); a nil handle is a no-op sink.
type chanMetrics struct {
	parked  *metrics.Counter
	cqDepth *metrics.Gauge
}

// metricsBinder is implemented by the PMMs that count fault events
// (rail/*, rdma/*): each resolves its own handles when its channel is
// created, so an event is one atomic add whether or not the session is
// traced, and a session's snapshot has rows only for the modules it runs.
type metricsBinder interface {
	bindMetrics(reg *metrics.Registry)
}

// bindMetrics resolves the channel's cached handles and registers a
// collector mapping the channel's live accounting into the
// chan/<name>/... counter namespace and the async/* totals: chanStats is
// the counters' only home, the registry pulls. Collectors emitting the
// same name sum, so snapshots show cluster-wide totals.
func (c *Channel) bindMetrics(reg *metrics.Registry) {
	c.met.parked = reg.Counter("async/parked-lease")
	c.met.cqDepth = reg.Gauge("async/cq-depth-max")
	if b, ok := c.pmm.(metricsBinder); ok {
		b.bindMetrics(reg)
	}

	prefix := "chan/" + metrics.Clean(c.name) + "/"
	st := &c.stats
	reg.RegisterCollector(func(emit func(string, int64)) {
		nz := func(name string, v int64) {
			if v != 0 {
				emit(prefix+name, v)
			}
		}
		nz("msgs-out", st.messagesOut.Load())
		nz("msgs-in", st.messagesIn.Load())
		nz("blocks-out", st.blocksOut.Load())
		nz("blocks-in", st.blocksIn.Load())
		nz("bytes-out", st.bytesOut.Load())
		nz("bytes-in", st.bytesIn.Load())
		nz("commits", st.commits.Load())
		nz("checkouts", st.checkouts.Load())
		emit("async/submitted", st.asyncSubmitted.Load())
		emit("async/completed", st.asyncCompleted.Load())
		emit("async/errors", st.asyncErrors.Load())
	})
}

// Stats snapshots the channel's accounting.
func (c *Channel) Stats() ChannelStats {
	out := ChannelStats{
		MessagesOut: c.stats.messagesOut.Load(),
		MessagesIn:  c.stats.messagesIn.Load(),
		BlocksOut:   c.stats.blocksOut.Load(),
		BlocksIn:    c.stats.blocksIn.Load(),
		BytesOut:    c.stats.bytesOut.Load(),
		BytesIn:     c.stats.bytesIn.Load(),
		Commits:     c.stats.commits.Load(),
		Checkouts:   c.stats.checkouts.Load(),

		AsyncSubmitted: c.stats.asyncSubmitted.Load(),
		AsyncCompleted: c.stats.asyncCompleted.Load(),
		AsyncErrors:    c.stats.asyncErrors.Load(),
	}
	out.TMBlocks = make(map[string]int64, len(c.tms))
	for i, tm := range c.tms {
		if v := c.stats.tmBlocks[i].Load(); v > 0 {
			out.TMBlocks[tm.Name()] += v
		}
	}
	return out
}
