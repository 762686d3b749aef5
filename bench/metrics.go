package main

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before that is a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd lists what a user of the simulator pays per workload, and is
// what BENCHMARK.json declares (bench_test.go holds the two to each
// other). Every workload reports every one of them, from untraced
// repetitions only. The workloads are sized by event or operation
// budgets, so these stay comparable from seed to seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// fixedSeed lists host-side metrics that repeat almost exactly for one
// seed but follow the generated work from seed to seed (a seed whose
// members sit further from the m-router allocates more per event; one
// whose queue peaks just past a slice-growth step retains a megabyte
// more). They
// are reported and compared by `go run ./bench` and -compare, which run
// one seed; BENCHMARK.json, which is judged across seeds, leaves them
// out. events_per_s and allocs_per_kevent do not exist on paper_sweep,
// whose simulations run inside the experiment package.
var fixedSeed = []metricDef{
	{"live_heap_mb", "MB", "lower", 0.05},
	{"events_per_s", "1/s", "higher", 0.25},
	{"allocs_per_kevent", "count", "lower", 0.02},
	{"alloc_mb", "MB", "lower", 0.02},
}

// perLayer lists the traced repetition's numbers, layer = package name.
// A workload a metric does not apply to reports 0 for it.
var perLayer = []metricDef{
	{Name: "topology.gen_s", Unit: "s", Better: "lower"},
	{Name: "topology.nexthop_s", Unit: "s", Better: "lower"},
	{Name: "topology.table_mb", Unit: "MB", Better: "lower"},
	{Name: "topology.row_us_p50", Unit: "us", Better: "lower"},
	{Name: "topology.row_us_hi", Unit: "us", Better: "lower"},
	{Name: "topology.row_hi_pct", Unit: "%", Better: "higher"},
	{Name: "topology.row_n", Unit: "count", Better: "higher"},
	{Name: "topology.allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "topology.nexthop_avoid_s", Unit: "s", Better: "lower"},
	{Name: "topology.avoid_rows", Unit: "count", Better: "lower"},

	{Name: "mtree.join_us_p50", Unit: "us", Better: "lower"},
	{Name: "mtree.join_us_hi", Unit: "us", Better: "lower"},
	{Name: "mtree.join_hi_pct", Unit: "%", Better: "higher"},
	{Name: "mtree.join_n", Unit: "count", Better: "higher"},
	{Name: "mtree.leave_us_p50", Unit: "us", Better: "lower"},
	{Name: "mtree.leave_us_hi", Unit: "us", Better: "lower"},
	{Name: "mtree.leave_hi_pct", Unit: "%", Better: "higher"},
	{Name: "mtree.leave_n", Unit: "count", Better: "higher"},
	{Name: "mtree.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "mtree.restructures_per_op", Unit: "count", Better: "lower"},
	{Name: "mtree.ops", Unit: "count", Better: "higher"},
	{Name: "mtree.new_engine_us", Unit: "us", Better: "lower"},
	{Name: "mtree.engine_kb", Unit: "KB", Better: "lower"},
	{Name: "mtree.hier_join_us_p50", Unit: "us", Better: "lower"},

	{Name: "des.events", Unit: "count", Better: "lower"},
	{Name: "des.pending_peak", Unit: "count", Better: "lower"},
	{Name: "des.pending_mean", Unit: "count", Better: "lower"},
	{Name: "des.ns_per_event_bare", Unit: "ns", Better: "lower"},
	{Name: "des.allocs_per_kevent_bare", Unit: "count", Better: "lower"},

	{Name: "netsim.ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "netsim.allocs_per_packet", Unit: "count", Better: "lower"},
	{Name: "netsim.crossings_data", Unit: "count", Better: "lower"},
	{Name: "netsim.crossings_ctrl", Unit: "count", Better: "lower"},
	{Name: "netsim.drops_ctrl", Unit: "count", Better: "lower"},
	{Name: "netsim.drops_data", Unit: "count", Better: "lower"},
	{Name: "netsim.new_s", Unit: "s", Better: "lower"},
	{Name: "netsim.install_churn_s", Unit: "s", Better: "lower"},

	{Name: "packet.tree_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.tree_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.tree_bytes", Unit: "count", Better: "lower"},
	{Name: "packet.branch_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.ack_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.allocs_per_decode", Unit: "count", Better: "lower"},

	{Name: "core.handler_s", Unit: "s", Better: "lower"},
	{Name: "core.handler_share", Unit: "1", Better: "lower"},
	{Name: "core.packets_handled", Unit: "count", Better: "lower"},
	{Name: "core.ctrl_per_op", Unit: "count", Better: "lower"},
	{Name: "core.backlog_peak", Unit: "count", Better: "lower"},
	{Name: "core.service_wait_ms_max", Unit: "ms", Better: "lower"},
	{Name: "core.sheds", Unit: "count", Better: "lower"},
	{Name: "core.parks", Unit: "count", Better: "lower"},
	{Name: "core.park_recovers", Unit: "count", Better: "higher"},
	{Name: "core.refresh_skips", Unit: "count", Better: "higher"},
	{Name: "core.recoveries", Unit: "count", Better: "higher"},
	{Name: "core.recovery_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "core.state_entries_max", Unit: "count", Better: "lower"},

	{Name: "drive.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "drive.allocs_per_kevent", Unit: "count", Better: "lower"},
	{Name: "drive.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "drive.send_s", Unit: "s", Better: "lower"},
	{Name: "drive.join_s", Unit: "s", Better: "lower"},
	{Name: "drive.churn_s", Unit: "s", Better: "lower"},
	{Name: "drive.settle_s", Unit: "s", Better: "lower"},
	{Name: "drive.probe_s", Unit: "s", Better: "lower"},

	{Name: "experiment.fig7_s", Unit: "s", Better: "lower"},
	{Name: "experiment.fig89_s", Unit: "s", Better: "lower"},
	{Name: "experiment.fig7x_s", Unit: "s", Better: "lower"},
	{Name: "experiment.placement_s", Unit: "s", Better: "lower"},
	{Name: "experiment.state_s", Unit: "s", Better: "lower"},
	{Name: "experiment.concentration_s", Unit: "s", Better: "lower"},
	{Name: "experiment.faults_s", Unit: "s", Better: "lower"},
	{Name: "experiment.domains_s", Unit: "s", Better: "lower"},
	{Name: "experiment.render_s", Unit: "s", Better: "lower"},

	{Name: "runtime.gc_cpu_share", Unit: "1", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "1", Better: "lower"},

	// Modelled protocol, in simulated time and the paper's cost units.
	// They repeat exactly for a seed; the digest, not a bound, gates them.
	{Name: "sim.join_latency_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sim.join_latency_ms_hi", Unit: "ms", Better: "lower"},
	{Name: "sim.join_latency_hi_pct", Unit: "%", Better: "higher"},
	{Name: "sim.join_latency_n", Unit: "count", Better: "higher"},
	{Name: "sim.ctrl_overhead_units", Unit: "count", Better: "lower"},
	{Name: "sim.data_delay_ms_max", Unit: "ms", Better: "lower"},
	{Name: "sim.recovery_ms_max", Unit: "ms", Better: "lower"},
}
