package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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

	mu    sync.Mutex
	wraps map[TM]*obsTM
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
	tm                          map[TM]*[4]string // by spanKind; read-only after creation
}

// spanKind indexes a TM's four Switch-step span labels.
type spanKind int

const (
	spanPack spanKind = iota
	spanCommit
	spanUnpack
	spanCheckout
)

func tmSpanLabels(name string) *[4]string {
	return &[4]string{"P:pack " + name, "C:commit " + name, "U:unpack " + name, "K:checkout " + name}
}

func newSpanLabels(channel string, tms []TM) spanLabels {
	l := spanLabels{
		leaseSend: "w:lease-send " + channel,
		leaseRecv: "w:lease-recv " + channel,
		drain:     "A:drain " + channel,
		tm:        make(map[TM]*[4]string, len(tms)),
	}
	for _, tm := range tms {
		l.tm[tm] = tmSpanLabels(tm.Name())
	}
	return l
}

// spanTM records one Switch-step interval of tm ending now. A TM the PMM
// failed to declare in TMs() still gets its span, at a concat per call.
func (c *Channel) spanTM(a *vclock.Actor, start vclock.Time, k spanKind, tm TM) {
	if c.obs == nil {
		return
	}
	l := c.lbl.tm[tm]
	if l == nil {
		l = tmSpanLabels(tm.Name())
	}
	c.obs.rec.Record(a.Name(), start, a.Now(), l[k])
}

// obsTM decorates a transmission module with transfer spans and per-TM
// latency attribution. BMM constructors install it (instrumentTM), so
// every wire operation of every PMM — built-in or externally registered —
// reports through the same sink without per-driver wiring. The embedded
// TM serves Name/Link/StaticSize/NewBMM untouched.
type obsTM struct {
	TM
	rec     *trace.Recorder
	tx, rx  *trace.Histogram
	txLabel string // "x:<tm>": send-side transfer spans
	rxLabel string // "v:<tm>": receive-side transfer spans
}

// instrumentTM wraps tm when the channel is observed; the identity
// function otherwise (including BMMs built over a bare ConnState with no
// channel, as white-box tests do). Idempotent, and canonical per TM
// identity: the observer caches one decorator per underlying TM, so the
// sync wrappers and the progress engine — whose workers build BMM
// instances for the same TMs concurrently — resolve the same decorator
// and the same pair of histograms. Without the cache each BMM
// construction would register a fresh decorator around the shared
// histograms, and a TM reached from both paths would be wrapped twice.
func instrumentTM(tm TM, cs *ConnState) TM {
	if cs == nil || cs.ch == nil || cs.ch.obs == nil {
		return tm
	}
	o := cs.ch.obs
	if _, wrapped := tm.(*obsTM); wrapped {
		return tm
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if w := o.wraps[tm]; w != nil {
		return w
	}
	if o.wraps == nil {
		o.wraps = make(map[TM]*obsTM)
	}
	name := tm.Name()
	w := &obsTM{
		TM:      tm,
		rec:     o.rec,
		tx:      o.reg.Histogram(name + "/tx"),
		rx:      o.reg.Histogram(name + "/rx"),
		txLabel: "x:" + name,
		rxLabel: "v:" + name,
	}
	o.wraps[tm] = w
	return w
}

// observe attributes the virtual time the operation consumed. Zero-width
// intervals still count in the histogram but are not recorded as spans,
// so free operations cannot flood the recorder's limit.
func (w *obsTM) observe(a *vclock.Actor, start vclock.Time, h *trace.Histogram, label string) {
	now := a.Now()
	h.Observe(now - start)
	if now > start {
		w.rec.Record(a.Name(), start, now, label)
	}
}

func (w *obsTM) SendBuffer(a *vclock.Actor, cs *ConnState, data []byte) error {
	t0 := a.Now()
	err := w.TM.SendBuffer(a, cs, data)
	w.observe(a, t0, w.tx, w.txLabel)
	return err
}

func (w *obsTM) SendBufferGroup(a *vclock.Actor, cs *ConnState, group [][]byte) error {
	t0 := a.Now()
	err := w.TM.SendBufferGroup(a, cs, group)
	w.observe(a, t0, w.tx, w.txLabel)
	return err
}

func (w *obsTM) ReceiveBuffer(a *vclock.Actor, cs *ConnState, dst []byte) error {
	t0 := a.Now()
	err := w.TM.ReceiveBuffer(a, cs, dst)
	w.observe(a, t0, w.rx, w.rxLabel)
	return err
}

func (w *obsTM) ReceiveSubBufferGroup(a *vclock.Actor, cs *ConnState, dsts [][]byte) error {
	t0 := a.Now()
	err := w.TM.ReceiveSubBufferGroup(a, cs, dsts)
	w.observe(a, t0, w.rx, w.rxLabel)
	return err
}

func (w *obsTM) ReceiveStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	t0 := a.Now()
	buf, err := w.TM.ReceiveStaticBuffer(a, cs)
	w.observe(a, t0, w.rx, w.rxLabel)
	return buf, err
}

// Static-buffer obtain/release are bookkeeping, not transfers — usually
// free, occasionally a credit-return wire write. They contribute spans
// when they cost time but stay out of the transfer-latency histograms,
// which would otherwise drown in zeros.

func (w *obsTM) ReleaseStaticBuffer(a *vclock.Actor, cs *ConnState, buf []byte) error {
	t0 := a.Now()
	err := w.TM.ReleaseStaticBuffer(a, cs, buf)
	w.observe(a, t0, nil, w.rxLabel)
	return err
}

func (w *obsTM) ObtainStaticBuffer(a *vclock.Actor, cs *ConnState) ([]byte, error) {
	t0 := a.Now()
	buf, err := w.TM.ObtainStaticBuffer(a, cs)
	w.observe(a, t0, nil, w.txLabel)
	return buf, err
}
