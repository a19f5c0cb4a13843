package core

import (
	"fmt"
	"sort"
	"strings"

	"madeleine2/internal/metrics"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
)

// Observer is the session-level observability sink: an optional span
// recorder shared by every layer of the message path (pack/unpack,
// Switch-module commits and checkouts, BMM flushes, lease-acquisition
// waits, per-TM transfers, and the forwarding gateway's pipeline) plus
// per-TM latency histograms aggregated across every channel of the
// session. Install it with Session.SetObserver before creating channels.
//
// Counters, gauges and histograms live in a metrics.Registry: installing
// the observer makes its registry the session's (Session.Metrics), so the
// always-on plane and the observer report from the same values.
//
// A nil *Observer is the no-op fast path: channels skip every span
// instrumentation hook (the always-on metrics then land in the session's
// base registry). A non-nil Observer with a nil Recorder keeps only the
// metrics.
type Observer struct {
	rec *trace.Recorder
	reg *metrics.Registry
}

// NewObserver returns an observer recording spans into rec (which may be
// nil to keep only the metrics).
func NewObserver(rec *trace.Recorder) *Observer {
	return &Observer{rec: rec, reg: metrics.NewRegistry()}
}

// Metrics exposes the observer's registry; nil-safe.
func (o *Observer) Metrics() *metrics.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Maxes snapshots every high-water-mark gauge that has moved.
func (o *Observer) Maxes() map[string]int64 {
	if o == nil {
		return nil
	}
	out := make(map[string]int64)
	for _, g := range o.reg.Snapshot().Gauges {
		if g.Value != 0 {
			out[g.Name] = g.Value
		}
	}
	return out
}

// Counters snapshots every named event counter that has fired, including
// collector-fed ones (fault/*, chan/*) the registry pulls at snapshot
// time.
func (o *Observer) Counters() map[string]int64 {
	if o == nil {
		return nil
	}
	out := make(map[string]int64)
	for _, c := range o.reg.Snapshot().Counters {
		if c.Value != 0 {
			out[c.Name] = c.Value
		}
	}
	return out
}

// Recorder exposes the span sink; nil-safe.
func (o *Observer) Recorder() *trace.Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// TMLatencies snapshots every histogram with at least one observation.
func (o *Observer) TMLatencies() map[string]trace.HistSnapshot {
	if o == nil {
		return nil
	}
	hists := o.reg.Snapshot().Hists
	out := make(map[string]trace.HistSnapshot, len(hists))
	for _, h := range hists {
		out[h.Name] = h.HistSnapshot
	}
	return out
}

// Report renders the per-TM latency histograms as a sorted table,
// followed by the named event counters when any have fired.
func (o *Observer) Report() string {
	var b strings.Builder
	lats := o.TMLatencies()
	if len(lats) == 0 {
		b.WriteString("(no TM latencies observed)\n")
	} else {
		names := make([]string, 0, len(lats))
		for n := range lats {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%-18s %8s %12s %12s %12s %12s %12s\n",
			"tm", "count", "min", "p50", "p99", "max", "mean")
		for _, n := range names {
			s := lats[n]
			fmt.Fprintf(&b, "%-18s %8d %12v %12v %12v %12v %12v\n",
				n, s.Count, s.Min, s.P50, s.P99, s.Max, s.Mean())
		}
	}
	if counters := o.Counters(); len(counters) > 0 {
		names := make([]string, 0, len(counters))
		for n := range counters {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("events:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-24s %8d\n", n, counters[n])
		}
	}
	if maxes := o.Maxes(); len(maxes) > 0 {
		names := make([]string, 0, len(maxes))
		for n := range maxes {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("high-water marks:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-24s %8d\n", n, maxes[n])
		}
	}
	return b.String()
}

// span records one interval ending now on the channel's observer; the
// no-op when unobserved is a single nil check on the hot path. The nil
// receiver is safe so BMMs built over a bare ConnState (white-box tests)
// can call through cs.ch unconditionally.
func (c *Channel) span(a *vclock.Actor, start vclock.Time, label string) {
	if c != nil && c.obs != nil {
		c.obs.rec.Record(a.Name(), start, a.Now(), label)
	}
}

// spanLabels are a channel's span labels, concatenated once when an
// observed channel is created, so neither the unobserved nor the observed
// hot path builds a string per span.
type spanLabels struct {
	leaseSend, leaseRecv, drain string
	tm                          map[TM]*tmSpans // read-only after creation
}

// tmSpans is where one TM's activity goes on an observed channel: the
// labels of its four Switch-step spans and, per side, the label of its
// transfer spans ("x:<tm>", "v:<tm>") and its latency histogram
// (<tm>/tx, <tm>/rx) in the session registry, which every channel running
// a TM of that name shares.
type tmSpans struct {
	step [4]string // by spanKind
	xfer [2]string // by side: tmSend, tmRecv
	lat  [2]*trace.Histogram
}

// spanKind indexes a TM's four Switch-step span labels.
type spanKind int

const (
	spanPack spanKind = iota
	spanCommit
	spanUnpack
	spanCheckout
)

const tmSend, tmRecv = 0, 1

// newTMSpans builds a TM's entry. The name is the module's choice, not the
// library's, so it enters the metric schema through metrics.Clean.
func newTMSpans(reg *metrics.Registry, name string) *tmSpans {
	clean := metrics.Clean(name)
	return &tmSpans{
		step: [4]string{"P:pack " + name, "C:commit " + name, "U:unpack " + name, "K:checkout " + name},
		xfer: [2]string{"x:" + name, "v:" + name},
		lat:  [2]*trace.Histogram{reg.Histogram(clean + "/tx"), reg.Histogram(clean + "/rx")},
	}
}

func newSpanLabels(channel string, reg *metrics.Registry, tms []TM) spanLabels {
	l := spanLabels{
		leaseSend: "w:lease-send " + channel,
		leaseRecv: "w:lease-recv " + channel,
		drain:     "A:drain " + channel,
		tm:        make(map[TM]*tmSpans, len(tms)),
	}
	for _, tm := range tms {
		l.tm[tm] = newTMSpans(reg, tm.Name())
	}
	return l
}

// spansOf returns tm's entry on an observed channel. A TM the PMM failed
// to declare in TMs() still gets one, built per lookup.
func (c *Channel) spansOf(tm TM) *tmSpans {
	if s := c.lbl.tm[tm]; s != nil {
		return s
	}
	return newTMSpans(c.obs.reg, tm.Name())
}

// spanTM records one Switch-step interval of tm ending now.
func (c *Channel) spanTM(a *vclock.Actor, start vclock.Time, k spanKind, tm TM) {
	if c.obs != nil {
		c.obs.rec.Record(a.Name(), start, a.Now(), c.spansOf(tm).step[k])
	}
}

// tmPort is how a BMM reaches its transmission module: it makes the seven
// buffer calls of Table 2 on the connection and times them, so every wire
// operation of every PMM, built-in or externally registered, reports
// through the same sink without per-driver wiring, and announces the
// message before its first send, so no PMM does. It is not itself a TM:
// no library type both holds and implements one, so a module has one
// identity for the Switch step, the BMM maps and the statistics.
type tmPort struct {
	tm  TM
	cs  *ConnState
	obs *tmSpans // nil when unobserved
}

func newTMPort(tm TM, cs *ConnState) tmPort {
	p := tmPort{tm: tm, cs: cs}
	// A bare ConnState with no channel (white-box tests) is unobserved.
	if cs.ch != nil && cs.ch.obs != nil {
		p.obs = cs.ch.spansOf(tm)
	}
	return p
}

// observe attributes the virtual time a call consumed. A transfer counts
// in its side's histogram, zero-width included, but only an interval that
// cost time becomes a span, so free calls cannot flood the recorder.
func (p tmPort) observe(a *vclock.Actor, start vclock.Time, side int, transfer bool) {
	if p.obs == nil {
		return
	}
	now := a.Now()
	if transfer {
		p.obs.lat[side].Observe(now - start)
	}
	if now > start {
		p.cs.ch.obs.rec.Record(a.Name(), start, now, p.obs.xfer[side])
	}
}

// A send is the first call that can put bytes on a wire or block on the
// receiver. A refused announcement fails it before the TM sees it.
func (p tmPort) SendBuffer(a *vclock.Actor, data []byte) error {
	if err := p.cs.Announce(); err != nil {
		p.unsent(data)
		return err
	}
	t0 := a.Now()
	err := p.tm.SendBuffer(a, p.cs, data)
	p.observe(a, t0, tmSend, true)
	return err
}

func (p tmPort) SendBufferGroup(a *vclock.Actor, group [][]byte) error {
	if err := p.cs.Announce(); err != nil {
		return err
	}
	t0 := a.Now()
	err := p.tm.SendBufferGroup(a, p.cs, group)
	p.observe(a, t0, tmSend, true)
	return err
}

func (p tmPort) ReceiveBuffer(a *vclock.Actor, dst []byte) error {
	t0 := a.Now()
	err := p.tm.ReceiveBuffer(a, p.cs, dst)
	p.observe(a, t0, tmRecv, true)
	return err
}

func (p tmPort) ReceiveSubBufferGroup(a *vclock.Actor, dsts [][]byte) error {
	t0 := a.Now()
	err := p.tm.ReceiveSubBufferGroup(a, p.cs, dsts)
	p.observe(a, t0, tmRecv, true)
	return err
}

func (p tmPort) ReceiveStaticBuffer(a *vclock.Actor) ([]byte, error) {
	t0 := a.Now()
	buf, err := p.tm.ReceiveStaticBuffer(a, p.cs)
	p.observe(a, t0, tmRecv, true)
	return buf, err
}

// Static-buffer obtain/release are bookkeeping, not transfers — usually
// free, occasionally a credit-return wire write. They contribute spans
// when they cost time but stay out of the transfer-latency histograms,
// which would otherwise drown in zeros.

func (p tmPort) ReleaseStaticBuffer(a *vclock.Actor, buf []byte) error {
	t0 := a.Now()
	err := p.tm.ReleaseStaticBuffer(a, p.cs, buf)
	p.observe(a, t0, tmRecv, false)
	return err
}

func (p tmPort) ObtainStaticBuffer(a *vclock.Actor) ([]byte, error) {
	t0 := a.Now()
	buf, err := p.tm.ObtainStaticBuffer(a, p.cs)
	p.observe(a, t0, tmSend, false)
	return buf, err
}

// unsent returns a static buffer; a dynamic TM's buffers are the caller's.
func (p tmPort) unsent(buf []byte) {
	if t, ok := p.tm.(*StaticTM); ok {
		t.unsent(p.cs, buf)
	}
}
