package main

// metricSpec is one metric of the result line. For a per-layer metric it
// also names the layer (module) it measures, and the end-to-end metric
// and workload it should move. BENCHMARK.json lists the same names and
// units in the same order; the test keeps the two in step.
type metricSpec struct {
	name, unit, layer string
	moves, workload   string // the end-to-end metric and workload it should move
}

// endToEnd are the metrics of an untraced run: the ones that repeat
// within a tenth from run to run on the calibration host.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s"},
	{name: "allocs_per_op", unit: "allocs"},
	{name: "heap_peak_mib", unit: "MiB"},
}

// layerMetrics are the metrics of a traced run. The first four are the
// whole path's throughput, CPU and latency, which spread too widely from
// run to run on the calibration host for a regression bound
// (calibration/README.md); they measure no single layer, so they name
// nothing to move.
var layerMetrics = []metricSpec{
	{"e2e.ops_per_s", "1/s", "whole path (unbounded: too noisy for a bound)", "", ""},
	{"e2e.cpu_us_per_op", "us", "whole path (unbounded: too noisy for a bound)", "", ""},
	{"e2e.lat_p50_us", "us", "whole path (unbounded: too noisy for a bound)", "", ""},
	{"e2e.lat_p99_us", "us", "whole path (unbounded: too noisy for a bound)", "", ""},
	{"core.pair_ns", "ns", "internal/core", "e2e.ops_per_s", "lib-pairs"},
	{"core.fast_hit_ratio", "ratio", "internal/core", "e2e.ops_per_s", "lib-pairs"},
	{"core.helps_per_op", "count", "internal/core", "e2e.ops_per_s", "lib-pairs"},
	{"core.append_cas_fail_per_op", "count", "internal/core", "e2e.ops_per_s", "lib-pairs"},
	{"wfq.pair_ns", "ns", "wfq facade", "e2e.ops_per_s", "lib-pairs"},
	{"wfq.self_ns", "ns", "wfq facade", "e2e.ops_per_s", "lib-pairs"},
	{"ring.op_ns", "ns", "internal/ring", "e2e.ops_per_s", "lib-backlog"},
	{"ring.seg_alloc_per_mop", "count", "internal/ring", "allocs_per_op", "lib-backlog"},
	{"ring.seg_reuse_ratio", "ratio", "internal/ring", "heap_peak_mib", "lib-backlog"},
	{"ring.slow_op_ratio", "ratio", "internal/ring", "e2e.ops_per_s", "lib-backlog"},
	{"ring.deq_burns_per_mop", "count", "internal/ring", "e2e.ops_per_s", "lib-backlog"},
	{"blocking.dequeuectx_ns", "ns", "blocking.go, internal/waiter", "e2e.ops_per_s", "lib-backlog"},
	{"blocking.wake_us_p50", "us", "internal/waiter", "e2e.ops_per_s", "lib-backlog"},
	{"blocking.wake_us_p99", "us", "internal/waiter", "e2e.lat_p50_us", "serve-wait-open"},
	{"qsvc.enq_ns", "ns", "internal/qsvc", "e2e.ops_per_s", "serve-pairs"},
	{"qsvc.deq_ns", "ns", "internal/qsvc", "e2e.ops_per_s", "serve-pairs"},
	{"qsvc.allocs_per_op", "allocs", "internal/qsvc", "allocs_per_op", "serve-pairs"},
	{"qsvc.armed_enq_ns", "ns", "internal/qsvc", "e2e.lat_p50_us", "serve-wait-open"},
	{"qsvc.armed_allocs_per_op", "allocs", "internal/qsvc", "allocs_per_op", "serve-wait-open"},
	{"qsvc.sweep_ns", "ns", "internal/qsvc", "e2e.cpu_us_per_op", "serve-wait-open"},
	{"qsvc.wait_us_p50", "us", "internal/qsvc", "e2e.lat_p50_us", "serve-wait-open"},
	{"qsvc.wait_us_p99", "us", "internal/qsvc", "e2e.lat_p99_us", "serve-wait-open"},
	{"wire.codec_ns", "ns", "internal/qsvc/wire", "e2e.ops_per_s", "serve-pairs"},
	{"wire.frame_ns", "ns", "internal/qsvc/wire", "e2e.ops_per_s", "serve-pairs"},
	{"wire.allocs_per_frame", "allocs", "internal/qsvc/wire", "allocs_per_op", "serve-pairs"},
	{"tcp.echo_rtt_us_p50", "us", "kernel loopback (floor; no change should move it)", "e2e.ops_per_s", "serve-pairs"},
	{"server.self_us_p50", "us", "internal/qsvc/server", "e2e.ops_per_s", "serve-pairs"},
	{"client.enq_rtt_us_p50", "us", "internal/qsvc/client", "e2e.ops_per_s", "serve-pairs"},
	{"client.enq_rtt_us_p99", "us", "internal/qsvc/client", "e2e.lat_p99_us", "serve-pairs"},
	{"client.deq_rtt_us_p50", "us", "internal/qsvc/client", "e2e.ops_per_s", "serve-pairs"},
	{"client.deq_rtt_us_p99", "us", "internal/qsvc/client", "e2e.lat_p99_us", "serve-pairs"},
	{"client.enqwait_us_p50", "us", "internal/qsvc/client", "e2e.lat_p50_us", "serve-wait-open"},
	{"client.enqwait_us_p99", "us", "internal/qsvc/client", "e2e.lat_p99_us", "serve-wait-open"},
	{"load.late_us_p99", "us", "bench generator (validity of the open-loop latency)", "e2e.lat_p99_us", "serve-wait-open"},
	{"runtime.gc_per_s", "1/s", "Go runtime", "e2e.lat_p99_us", "lib-backlog"},
	{"runtime.gc_pause_us_p99", "us", "Go runtime", "e2e.lat_p99_us", "serve-pairs"},
	{"runtime.sched_latency_us_p99", "us", "Go runtime", "e2e.lat_p99_us", "serve-wait-open"},
}
