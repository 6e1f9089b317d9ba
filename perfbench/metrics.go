package main

// metricDef names one reported metric with its unit and direction. The
// lists below are the benchmark's contract with BENCHMARK.json; the tests
// hold the two in step.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are reported with tracing off (-trace 0).
var e2eMetrics = []metricDef{
	// Simulated work per host second of the engine call: delivered data
	// packets, RPC legs, messages handled or fault events replayed.
	{"work_per_s", "1/s", "higher"},
	// Host time to build the topology and generate the inputs.
	{"setup_s", "s", "lower"},
	// Peak resident set (VmHWM) of the one-workload child process.
	{"peak_rss_mb", "MB", "lower"},
	// Share of the correctness checks that passed.
	{"ok_frac", "fraction", "higher"},
}

// layerMetrics are reported by the traced run (-trace 1). Every workload
// reports all of them, with zero for a layer it does not call.
var layerMetrics = []metricDef{
	{"core.build_s", "s", "lower"},
	{"traffic.gen_s", "s", "lower"},
	{"failure.plan_s", "s", "lower"},
	{"flowsim.route_s", "s", "lower"},
	{"topology.paths_s", "s", "lower"},
	{"core.nexthop_ns", "ns", "lower"},

	{"packetsim.run_s", "s", "lower"},
	{"packetsim.busy_s", "s", "lower"},
	{"packetsim.wait_s", "s", "lower"},
	{"packetsim.wait_frac", "fraction", "lower"},
	{"packetsim.events", "count", "lower"},
	{"packetsim.ns_per_event", "ns", "lower"},
	{"packetsim.windows", "count", "lower"},
	{"packetsim.handoff_frac", "fraction", "lower"},
	{"packetsim.imbalance", "ratio", "lower"},
	{"packetsim.retransmit_frac", "fraction", "lower"},

	{"svc.run_s", "s", "lower"},
	{"svc.us_per_leg", "us", "lower"},
	{"svc.alloc_kb_per_leg", "KB", "lower"},
	{"svc.legs_per_request", "count", "lower"},
	{"svc.useful_leg_frac", "fraction", "higher"},
	{"svc.wasted_responses", "count", "lower"},

	{"emu.discovery_s", "s", "lower"},
	{"emu.run_s", "s", "lower"},
	{"emu.rounds", "count", "lower"},
	{"emu.us_per_round", "us", "lower"},
	{"emu.msgs_per_round", "count", "higher"},
	{"emu.handoff_frac", "fraction", "lower"},
	{"emu.backpressure_retries", "count", "lower"},

	{"surv.run_s", "s", "lower"},
	{"surv.us_per_event", "us", "lower"},
	{"surv.trial_imbalance", "ratio", "lower"},
	{"graph.init_s", "s", "lower"},
	{"graph.fail_us", "us", "lower"},
	{"graph.repair_us", "us", "lower"},
	{"graph.split_frac", "fraction", "lower"},

	{"core.alloc_mb", "MB", "lower"},
	{"traffic.alloc_mb", "MB", "lower"},
	{"failure.alloc_mb", "MB", "lower"},
	{"flowsim.alloc_mb", "MB", "lower"},
	{"topology.alloc_mb", "MB", "lower"},
	{"packetsim.alloc_mb", "MB", "lower"},
	{"svc.alloc_mb", "MB", "lower"},
	{"emu.alloc_mb", "MB", "lower"},
	{"surv.alloc_mb", "MB", "lower"},
	{"graph.alloc_mb", "MB", "lower"},
	{"go.gc_cpu_frac", "fraction", "lower"},

	// 1 - traced/untraced work_per_s over paired children: the cost of
	// arming the packages' counters and profiles.
	{"obs.overhead_frac", "fraction", "lower"},
}

func unitOf(defs []metricDef, name string) string {
	for _, m := range defs {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}
