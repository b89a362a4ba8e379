package main

// The metric catalog fixes every metric's name, unit and print order. Later
// issues refer to metrics by these names. BENCHMARK.json repeats the names
// with each metric's direction and regression bound (a unit test keeps the
// two in step).

type metricDef struct{ name, unit string }

// endToEndDefs are measured with tracing off. Each is reported, written to the
// result file and judged by -compare on the workloads definedOn names.
var endToEndDefs = []metricDef{
	{"sim_mips", "MIPS"},
	{"setup_s", "s"},
	{"alloc_mb_per_run", "MB"},
	{"live_heap_mb", "MB"},
	{"golden_err_pct", "%"},
	{"jobs_per_s", "1/s"},
	{"job_latency_ms_p50", "ms"},
	{"job_latency_ms_p95", "ms"},
	{"campaign_points_per_s", "1/s"},
}

// perLayerDefs come from the traced pass (probe and counters), the layer
// kernels and, for zsimd-mix, job timestamps, /healthz and /metrics. A workload
// reports the ones that apply to it.
var perLayerDefs = []metricDef{
	// Probe and counters of the traced run (host time unless a unit says otherwise).
	{"boundweave.bound_s", "s"},
	{"boundweave.weave_s", "s"},
	{"boundweave.other_s", "s"},
	{"boundweave.intervals", "count"},
	{"boundweave.bound_rounds", "count"},
	{"boundweave.ns_per_interval", "ns/interval"},
	{"boundweave.build_system_s", "s"},
	{"boundweave.new_simulator_s", "s"},
	{"trace.workload_build_s", "s"},
	{"event.weave_events", "count"},
	{"event.ns_per_event", "ns/event"},
	{"event.stall_s", "s"},
	{"event.horizon_parks", "count"},
	{"event.domain_wakes", "count"},
	{"event.handoffs_per_event", "1/event"},
	{"engine.pool_runs", "count"},
	{"engine.pool_wakes", "count"},
	{"virt.context_switches", "count"},
	{"virt.mid_interval_joins", "count"},
	{"virt.lock_blocks", "count"},
	{"virt.syscall_blocks", "count"},
	{"noc.traversals", "count"},
	{"noc.port_conflicts", "count"},
	{"noc.queue_delay_cycles", "cycles"},
	{"core.sim_ipc", "IPC"},
	{"cache.l1d_mpki", "MPKI"},
	{"cache.l2_mpki", "MPKI"},
	{"cache.l3_mpki", "MPKI"},
	{"arena.bytes", "bytes"},
	{"arena.chunks", "count"},
	{"trace_overhead_frac", "frac"},
	{"model.residual_frac", "frac"},
	// Layer kernels: one hot public call per layer, in isolation.
	{"core.ooo_ns_per_instr", "ns/instr"},
	{"core.ipc1_ns_per_instr", "ns/instr"},
	{"trace.ns_per_block", "ns/block"},
	{"isa.decode_ns_per_block", "ns/block"},
	{"cache.l1_hit_ns", "ns/access"},
	{"cache.l2_hit_ns", "ns/access"},
	{"cache.l3_hit_ns", "ns/access"},
	{"cache.mem_ns", "ns/access"},
	{"cache.write_shared_ns", "ns/access"},
	{"boundweave.recorder_ns_per_access", "ns/access"},
	{"event.serial_ns_per_event", "ns/event"},
	{"event.par2_ns_per_event", "ns/event"},
	{"noc.router_ns_per_schedule", "ns/schedule"},
	{"memctrl.ddr3_ns_per_request", "ns/request"},
	{"engine.pool_run_ns", "ns/run"},
	{"virt.interval_ns_6c", "ns/interval"},
	{"virt.interval_ns_64c", "ns/interval"},
	{"virt.interval_ns_1024c", "ns/interval"},
	{"zsim.construct_ms", "ms/job"},
	{"zsim.reset_ms", "ms/job"},
	// zsimd-mix only.
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.service_ms_p50_hot", "ms"},
	{"serve.service_ms_p50_cold", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.pool_hit_frac", "frac"},
	{"campaign.expand_ns_per_point", "ns/point"},
}

// definedOn reports whether an end-to-end metric is defined on a workload:
// simulation speed and memory on the five simulation workloads, accuracy on
// westmere-ooo, the service metrics on zsimd-mix, setup_s everywhere.
func definedOn(metric, workload string) bool {
	switch metric {
	case "setup_s":
		return true
	case "sim_mips", "alloc_mb_per_run", "live_heap_mb":
		return workload != zsimdMixName
	case "golden_err_pct":
		return workload == "westmere-ooo"
	}
	return workload == zsimdMixName
}

// inOrder returns the metrics of got that defs names, in catalog order.
func inOrder(defs []metricDef, got map[string]metric) []metric {
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		if m, ok := got[d.name]; ok {
			out = append(out, m)
		}
	}
	return out
}

// unitOf returns a catalog metric's unit. Asking for a name the catalog does
// not hold is a bug in this package.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalog")
}
