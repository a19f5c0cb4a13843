package main

import (
	"fmt"
	"sort"
)

// metricDef describes one reported number. The tables below are the single
// source of the names, units and bounds: BENCHMARK.json is generated from
// them (madperf -manifest) and the smoke test checks the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// Host time (wall clock, CPU, heap) and virtual time (the simulated
// hardware's clock, the paper's axis) are never mixed in one number:
// virt_us is its own unit.
const unitVirtUS = "virt_us"

// endToEnd lists what a user of the library sees. failed_ops_share of the
// issue is the result line's failed/attempted pair: a metric that is 0 on
// every healthy run cannot carry a relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"virt_us_per_op", unitVirtUS, "lower", 0.02},
	{"live_heap_mb", "MiB", "lower", 0.25},
}

var laneDrivers = []string{"sisci", "bip", "tcp", "via", "sbp", "rdma"}

// perLayer lists the per-module numbers of the traced run. Layers are the
// repository's packages; a layer a workload does not exercise reports 0,
// which is the "no change expected" prediction made visible.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// client: the load generator itself.
	add("us", "lower", "client.op_wall_us_p50", "client.op_wall_us_ptail")
	add("%", "higher", "client.ptail_rank")
	add("count", "higher", "client.samples")
	add("ratio", "lower", "client.segment_spread")
	// host: the Go runtime under the workload.
	add("count", "lower", "host.gc_cycles")
	add("us", "lower", "host.gc_pause_us")
	add("ratio", "lower", "host.gc_cpu_share")
	add("count", "lower", "host.goroutines_peak", "host.goroutines_leaked")
	// setup: where work moved out of the hot path lands.
	add("s", "lower", "setup.world_s", "setup.channels_s", "setup.warmup_s")
	add("count", "lower", "setup.allocs")
	add("B", "lower", "setup.alloc_bytes")
	add("s", "lower", "setup.teardown_s")
	// core: wall self time per call of the pack/unpack interface.
	add("us", "lower",
		"core.begin_packing_wall_us", "core.pack_express_wall_us", "core.pack_cheaper_wall_us",
		"core.end_packing_wall_us", "core.begin_unpacking_wall_us", "core.unpack_express_wall_us",
		"core.unpack_cheaper_wall_us", "core.end_unpacking_wall_us")
	// core: counts per message.
	add("count", "lower", "core.blocks_per_msg", "core.commits_per_msg", "core.checkouts_per_msg",
		"core.tm_switches_per_msg")
	add("ratio", "higher", "core.static_tm_share")
	// core: virtual time per message, from the session Observer.
	add(unitVirtUS, "lower", "core.virt.pack_us", "core.virt.commit_us", "core.virt.lease_wait_us",
		"core.virt.unpack_us", "core.virt.checkout_us", "core.virt.flush_us")
	// core: isolated probes over the benchmark's null driver.
	for _, b := range []string{"eager", "aggr", "static"} {
		add("ns", "lower", "core.null."+b+".msg_ns")
		add("count", "lower", "core.null."+b+".msg_allocs")
	}
	add("ns", "lower", "core.lease.contended_msg_ns", "core.async.null_conv_ns")
	add("count", "lower", "core.async.null_conv_allocs")
	add("ns", "lower", "core.observer.on_msg_ns")
	add("ratio", "lower", "core.observer.overhead_share")
	// core: the progress engine under async_10k.
	add("us", "lower", "core.async.submit_wall_us", "core.async.drain_wall_us")
	add("count", "lower", "core.async.runq_max", "core.async.occupancy_max", "core.async.cq_depth_max",
		"core.async.parked_lease")
	// PMMs: one lane per driver in the two ping-pong workloads.
	for _, d := range laneDrivers {
		add("op/s", "higher", "pmm."+d+".ops_per_s")
		add("count", "lower", "pmm."+d+".allocs_per_op")
		add(unitVirtUS, "lower", "pmm."+d+".virt_us_per_op")
	}
	// raw drivers: 1 KiB round trip through the driver's own API.
	add("ns", "lower", "sisci.raw_rt_ns", "bip.raw_rt_ns", "tcpnet.raw_rt_ns", "via.raw_rt_ns",
		"sbp.raw_rt_ns", "rdma.raw_rt_ns")
	// simnet, vclock.
	add("ns", "lower", "simnet.queue_push_pop_ns")
	add("count", "lower", "simnet.queue_allocs", "simnet.fault.corrupted", "simnet.fault.dropped",
		"simnet.fault.delayed")
	add("ns", "lower", "vclock.advance_ns", "vclock.resource_acquire_ns")
	// fwd.
	add("us", "lower", "fwd.pack_wall_us", "fwd.unpack_wall_us")
	add("count", "lower", "fwd.packets_per_msg", "fwd.allocs_per_packet", "fwd.rel.packets",
		"fwd.rel.retransmits", "fwd.rel.acks", "fwd.rel.nacks", "fwd.rel.dup_suppressed", "fwd.rel.backoffs")
	add("ratio", "lower", "fwd.rel.retransmit_share")
	add("count", "lower", "fwd.drops")
	// coll.
	add("us", "lower", "coll.alltoallv_wall_us", "coll.allreduce_wall_us", "coll.gather_wall_us")
	add("count", "higher", "coll.ops")
	add("count", "lower", "coll.msgs_per_op")
	add("B", "lower", "coll.bytes_per_op")
	add("count", "lower", "coll.errors")
	add("ratio", "lower", "coll.straggler_ratio")
	add("us", "lower", "coll.chan.allgather_8r_wall_us")
	// mpi, nexus: probes only.
	add("ns", "lower", "mpi.sendrecv_1k_rt_ns")
	add("count", "lower", "mpi.sendrecv_1k_allocs")
	add("us", "lower", "mpi.allreduce_8r_wall_us", "mpi.alltoall_8r_wall_us")
	add("count", "lower", "mpi.inflight_after")
	add("ns", "lower", "nexus.rsr_echo_1k_rt_ns")
	add("count", "lower", "nexus.rsr_echo_1k_allocs")
	// metrics, trace: the cost of looking.
	add("ns", "lower", "metrics.counter_add_ns")
	add("us", "lower", "metrics.snapshot_us")
	add("ns", "lower", "trace.record_ns", "trace.hist_observe_ns")
	add("ratio", "lower", "trace.overhead_share")
	add("count", "higher", "trace.spans")
	add("count", "lower", "trace.dropped")
	return out
}

// value is one measured number with its unit, as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and checks them against a definition
// table: every defined name exactly once, nothing undefined.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) {
	if _, dup := m[name]; dup {
		panic("madperf: metric " + name + " set twice")
	}
	m[name] = v
}

// export orders the set by its definition table and attaches units. A
// missing or unknown name is a bug in the benchmark, reported as an error.
func (m metricSet) export(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(m) != len(defs) {
		var extra []string
		for name := range m {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are not in the definition table", extra)
	}
	return out, nil
}
