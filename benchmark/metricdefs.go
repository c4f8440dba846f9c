package main

import "github.com/zhuge-project/zhuge/internal/experiments"

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of a reproduction run sees, measured
// with tracing off. Times are process CPU seconds (user+sys, all threads),
// which leave out the time the hypervisor gives to other guests; the
// wall-clock times are printed next to them but are not gated, because on
// a shared host they follow the neighbours' load. Memory is in MiB.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer lists the traced run's metrics. A metric whose layer the
// workload does not drive (experiments.* outside sweep, shard.* in sweep)
// reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"trace.gen_s", "s", "lower"},
		{"scenario.build_s", "s", "lower"},
		{"scenario.build_alloc_mb", "MiB", "lower"},
		{"scenario.build_alloc_kb_per_flow", "KiB", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"shard.windows", "count", "lower"},
		{"shard.critical_s", "s", "lower"},
		{"shard.serial_s", "s", "lower"},
		{"shard.barrier_s", "s", "lower"},
		{"shard.par_eff", "ratio", "higher"},
	}
	for _, e := range experiments.All() {
		defs = append(defs, metricDef{"experiments." + e.ID + "_s", "s", "lower"})
	}
	defs = append(defs, metricDef{"parallel.cells", "count", "lower"})
	for _, p := range phaseNames {
		defs = append(defs,
			metricDef{p + ".alloc_mb", "MiB", "lower"},
			metricDef{p + ".allocs", "count", "lower"},
			metricDef{p + ".gc_cycles", "count", "lower"},
			metricDef{p + ".gc_cpu_s", "s", "lower"},
		)
	}
	for _, m := range modules {
		defs = append(defs, metricDef{"cpu." + m + "_frac", "ratio", "lower"})
	}
	return append(defs,
		metricDef{"wireless.enqueued", "count", "lower"},
		metricDef{"wireless.pkts_per_ampdu", "pkts", "higher"},
		metricDef{"queue.drop_frac", "ratio", "lower"},
		metricDef{"core.ft_predictions", "count", "lower"},
		metricDef{"core.ft_cache_hit_frac", "ratio", "higher"},
		metricDef{"core.ib_constructed", "count", "lower"},
		metricDef{"core.oob_acks", "count", "lower"},
		metricDef{"rtp.sent", "count", "lower"},
		metricDef{"rtp.retransmits", "count", "lower"},
		metricDef{"video.decoded", "count", "higher"},
		metricDef{"video.skipped", "count", "lower"},
		metricDef{"bench.tracing_overhead_frac", "ratio", "lower"},
		metricDef{"bench.reconcile_err_frac", "ratio", "lower"},
	)
}
