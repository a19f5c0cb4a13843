package main

// workloads is the benchmark's fixed list. Segment sizes are constants
// (scaled only by -scale) so per-operation counts are comparable between
// commits; how many segments run is what --seconds decides.
var workloads = []workload{
	{
		name: "pingpong_small",
		why: "1 KiB Table-1 round trips over six drivers in turn: per-message software cost " +
			"(op descriptors, BMM, Switch, lease, short TMs, queues) is nearly all the work",
		segUnits: 6000, traceDiv: 7,
		build: newPingpong(1<<10, 127),
	},
	{
		name: "pingpong_bulk",
		why: "1 MiB round trips over the same six channels: bandwidth-bound, long TMs, memmove " +
			"dominates; a small-message win bought with an extra copy or pool churn loses here",
		segUnits: 80, traceDiv: 3,
		build: newPingpong(1<<20, 4095),
	},
	{
		name: "fwd_bulk",
		why: "256 KiB messages streamed both ways across the SCI/Myrinet gateway at 8 KiB MTU: " +
			"fwd fragmentation, the gateway pipeline and reassembly do the work, core's small path little",
		segUnits: 300, traceDiv: 3,
		build: newFwdBulk,
	},
	{
		name: "llm_lossy",
		why: "MoE alltoallv+allreduce, prefill-to-decode and incast steps on 8 ranks over a reliable " +
			"VC with 0.5% corrupt+drop: the only workload running coll and fwd's ACK/retransmit loop",
		segUnits: 30, traceDiv: 3,
		build: newLLMLossy,
	},
	{
		name: "async_10k",
		why: "rounds of 10000 concurrent 64 B async conversations on an 8-node tcp world: progress " +
			"engine, run queue, CQ and FIFO lease hand-off, all idle in the four sync workloads",
		segUnits: asyncSegRounds, traceDiv: 3,
		build: newAsync10k,
	},
}
