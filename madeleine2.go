// Package madeleine2 is the public API of this reproduction of
// "Madeleine II: a Portable and Efficient Communication Library for
// High-Performance Cluster Computing" (Aumage et al., IEEE CLUSTER 2000).
//
// It re-exports the library's user-facing surface:
//
//   - cluster construction (a simulated World of nodes and NIC adapters —
//     the 1999 hardware the paper ran on is rebuilt in-process, with real
//     data movement and deterministic virtual time),
//   - sessions and channels with the paper's pack/unpack interface and
//     semantic flags (send_SAFER / send_LATER / send_CHEAPER,
//     receive_EXPRESS / receive_CHEAPER),
//   - virtual channels with gateway forwarding for clusters of clusters.
//
// Quickstart:
//
//	w := madeleine2.NewWorld(2)
//	w.Node(0).AddAdapter(madeleine2.SCINetwork)
//	w.Node(1).AddAdapter(madeleine2.SCINetwork)
//	sess := madeleine2.NewSession(w)
//	chans, _ := sess.NewChannel(madeleine2.ChannelSpec{Name: "main", Driver: "sisci"})
//
//	// rank 0
//	a := madeleine2.NewActor("rank0")
//	conn, _ := chans[0].BeginPacking(a, 1)
//	conn.Pack(hdr, madeleine2.SendCheaper, madeleine2.ReceiveExpress)
//	conn.Pack(body, madeleine2.SendCheaper, madeleine2.ReceiveCheaper)
//	conn.EndPacking()
//
// Channel.Send and Channel.Recv are the scoped form of the same message:
// they end it on every path and allocate no handle for it (the Connection
// they pass is valid only until the function returns), and
// Session.CheckQuiescent reports a Table-1 message that was never ended.
//
// The higher layers of §5.3 live in internal/mpi (the ch_mad MPI device)
// and internal/nexus (the Nexus RSR runtime); the measurement harness that
// regenerates every figure lives in internal/bench and cmd/madbench.
package madeleine2

import (
	"madeleine2/internal/bip"
	"madeleine2/internal/core"
	"madeleine2/internal/fwd"
	"madeleine2/internal/metrics"
	"madeleine2/internal/sbp"
	"madeleine2/internal/simnet"
	"madeleine2/internal/sisci"
	"madeleine2/internal/tcpnet"
	"madeleine2/internal/trace"
	"madeleine2/internal/vclock"
	"madeleine2/internal/via"
)

// Core communication types (§2 of the paper).
type (
	// Session is one Madeleine II run over a cluster.
	Session = core.Session
	// Channel is a closed world of communication on one network interface.
	Channel = core.Channel
	// Connection is one in-construction or in-extraction message.
	Connection = core.Connection
	// ChannelSpec describes a channel to create collectively.
	ChannelSpec = core.ChannelSpec
	// RailSpec names one rail (driver + adapter index) of a
	// multi-rail striped channel; see ChannelSpec.Rails.
	RailSpec = core.RailSpec
	// SendMode is the emission flag of Pack (send_SAFER/LATER/CHEAPER).
	SendMode = core.SendMode
	// RecvMode is the reception flag (receive_EXPRESS/CHEAPER).
	RecvMode = core.RecvMode
)

// Asynchronous submission interface: non-blocking Submit* calls backed by
// the session's bounded progress engine, with completion queues. The sync
// Pack/Unpack API above is a thin wrapper over the same machinery.
type (
	// SessionSpec configures the session's progress engine.
	SessionSpec = core.SessionSpec
	// AsyncMsg is one asynchronous conversation (the Submit-side analog
	// of a Connection).
	AsyncMsg = core.AsyncMsg
	// Request is the caller's handle on one submitted operation.
	Request = core.Request
	// Completion reports the outcome of one submitted operation.
	Completion = core.Completion
	// CQ is a completion queue with poll (Poll/Wait) and callback
	// (OnCompletion) delivery.
	CQ = core.CQ
	// OpKind discriminates submitted operations (pack/unpack/end).
	OpKind = core.OpKind
)

// Operation kinds of the asynchronous interface.
const (
	OpPack   = core.OpPack
	OpUnpack = core.OpUnpack
	OpEnd    = core.OpEnd
)

// DefaultWorkers is the progress-engine pool size when SessionSpec.Workers
// is zero.
const DefaultWorkers = core.DefaultWorkers

// NewSessionWith starts a session with an explicit progress-engine
// configuration.
func NewSessionWith(w *World, spec SessionSpec) *Session { return core.NewSessionWith(w, spec) }

// NewCQ builds an empty completion queue in poll mode.
func NewCQ() *CQ { return core.NewCQ() }

// Simulated cluster types.
type (
	// World is the simulated cluster: nodes, adapters, fabrics.
	World = simnet.World
	// Node is one simulated host.
	Node = simnet.Node
	// Actor is a thread of control with a virtual clock.
	Actor = vclock.Actor
	// Time is a virtual-time instant or duration in nanoseconds.
	Time = vclock.Time
)

// Cluster-of-clusters types (§6).
type (
	// VirtualChannel is a channel spanning a sequence of real channels
	// through gateway nodes.
	VirtualChannel = fwd.VC
	// VirtualChannelSpec describes a virtual channel.
	VirtualChannelSpec = fwd.Spec
	// VirtualConnection is one message over a virtual channel, a
	// Connection like any other (its channel's TM is the Generic TM).
	VirtualConnection = core.Connection
)

// The pack/unpack semantic flags (§2.2).
const (
	SendCheaper = core.SendCheaper
	SendSafer   = core.SendSafer
	SendLater   = core.SendLater

	ReceiveCheaper = core.ReceiveCheaper
	ReceiveExpress = core.ReceiveExpress
)

// Fabric names for Node.AddAdapter.
const (
	MyrinetNetwork  = bip.Network
	SCINetwork      = sisci.Network
	EthernetNetwork = tcpnet.Network
	VIANetwork      = via.Network
	SBPNetwork      = sbp.Network
)

// NewWorld builds a simulated cluster of n nodes.
func NewWorld(n int) *World { return simnet.NewWorld(n) }

// NewSession starts a Madeleine II session over the world.
func NewSession(w *World) *Session { return core.NewSession(w) }

// NewActor creates a thread-of-control clock.
func NewActor(name string) *Actor { return vclock.NewActor(name) }

// Observability types: the session-wide sink behind the tools' -trace
// flags. Install with Session.SetObserver before creating channels.
type (
	// Observer aggregates spans and per-TM latency histograms for every
	// layer of a session's message path. A nil *Observer is the no-op
	// fast path.
	Observer = core.Observer
	// TraceRecorder collects virtual-time spans; render with Timeline
	// (ASCII) or Chrome (trace-event JSON).
	TraceRecorder = trace.Recorder
)

// NewObserver builds an observer recording spans into rec (nil keeps
// only the per-TM latency histograms).
func NewObserver(rec *TraceRecorder) *Observer { return core.NewObserver(rec) }

// Metrics plane: every session owns an always-on registry (fault
// injections, fwd reliability, async engine and per-channel traffic all
// publish into it), exposed on demand over HTTP.
type (
	// MetricsRegistry is a session's named-metric registry; snapshot it
	// directly or serve it with ServeMetrics.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is one sorted point-in-time view of a registry.
	MetricsSnapshot = metrics.Snapshot
	// MetricsServer is a running exposition endpoint; Close it when done.
	MetricsServer = metrics.Server
)

// MergeTraces stitches per-session span recorders into one timeline;
// spans carrying the same trace ID (propagated across fwd gateways)
// render as a single cross-cluster flow in the Chrome export.
func MergeTraces(recs ...*TraceRecorder) *TraceRecorder { return trace.Merge(recs...) }

// ServeMetrics exposes the session's registry over HTTP: Prometheus text
// on /metrics, the JSON snapshot (madtop's wire format) on
// /metrics.json. addr is a listen address like "127.0.0.1:0"; the
// server's URL reports the bound port. Opt-in: sessions that never call
// it bind no socket and pay nothing beyond the registry's atomics.
func ServeMetrics(sess *Session, addr string) (*MetricsServer, error) {
	return metrics.Serve(sess.Metrics(), addr)
}

// NewTraceRecorder builds a span recorder keeping at most limit spans
// (0 = unbounded).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.New(limit) }

// NewVirtualChannel collectively creates a virtual channel (§6).
func NewVirtualChannel(sess *Session, spec VirtualChannelSpec) (map[int]*VirtualChannel, error) {
	return fwd.New(sess, spec)
}

// Drivers lists the supported protocol modules.
func Drivers() []string { return core.Drivers() }

// Micros converts a float microsecond count to virtual Time.
func Micros(us float64) Time { return vclock.Micros(us) }

// MBps converts bytes moved in a duration to MB/s (1 MB = 1e6 bytes, the
// paper's convention).
func MBps(bytes int, d Time) float64 { return vclock.MBps(bytes, d) }
