package main

import (
	"fmt"

	"rteaal/sim"
)

// perLayer names every per-layer metric with its unit. The traced run of
// every workload reports all of them; a layer the workload does not reach
// reports 0 (README.md lists which workload moves which metric).
var perLayer = []struct{ name, unit string }{
	{"firrtl.parse_s", "s"},
	{"dfg.optimize_s", "s"},
	{"dfg.levelize_s", "s"},
	{"oim.build_s", "s"},
	{"kernel.lower_s", "s"},
	{"kernel.batch_build_s", "s"},
	{"partition.plan_s", "s"},
	{"repcut.lower_s", "s"},
	{"sim.setup_other_s", "s"},
	{"oim.ops", "count"},
	{"oim.layers", "count"},
	{"oim.slots", "count"},
	{"partition.replication_factor", "ratio"},
	{"partition.cut_size", "count"},
	{"partition.max_ops", "count"},
	{"kernel.run_s", "s"},
	{"kernel.ns_per_op_cycle", "ns"},
	{"kernel.batch_worker_scaling", "ratio"},
	{"testbench.overhead_share", "ratio"},
	{"repcut.run_s", "s"},
	{"repcut.vs_monolithic", "ratio"},
	{"runtime.alloc_bytes_per_cycle", "B"},
	{"runtime.gc_count", "count"},
	{"client.compile_hit_ms", "ms"},
	{"client.session_open_ms", "ms"},
	{"client.commands_ms", "ms"},
	{"client.session_close_ms", "ms"},
	{"testbench.exec_ms", "ms"},
	{"server.wire_overhead_ms", "ms"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"sim.pool_checkouts", "count"},
	{"server.rejected", "count"},
	{"client.retries", "count"},
	{"server.request_bytes", "B"},
	{"server.response_bytes", "B"},
	{"trace.setup_s", "s"},
	{"trace.overhead_share", "ratio"},
}

// initLayers fills every per-layer metric with 0 so a traced run always
// reports the full set.
func (r *report) initLayers() {
	for _, m := range perLayer {
		r.layer[m.name] = metric{Unit: m.unit}
	}
}

// setLayer records a per-layer metric; an unknown name is a bug in the
// benchmark.
func (r *report) setLayer(name string, v float64) {
	m, ok := r.layer[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: unknown per-layer metric %q", name))
	}
	m.Value = v
	r.layer[name] = m
}

// setE2E records an end-to-end metric with its unit from endToEnd.
func (r *report) setE2E(name string, v float64) {
	for _, m := range endToEnd {
		if m.name == name {
			r.e2e[name] = metric{Value: v, Unit: m.unit}
			return
		}
	}
	panic(fmt.Sprintf("perfbench: unknown end-to-end metric %q", name))
}

// setSetupLayers attributes the traced set-up to layers: each compile
// stage's median span, trace.setup_s (the median public set-up), and
// sim.setup_other_s, the part of trace.setup_s no stage span covers.
func (r *report) setSetupLayers(tr *tracer) {
	setupS := median(tr.durations("setup"))
	other := setupS
	for _, s := range []struct{ span, metric string }{
		{"firrtl.parse", "firrtl.parse_s"},
		{"dfg.optimize", "dfg.optimize_s"},
		{"dfg.levelize", "dfg.levelize_s"},
		{"oim.build", "oim.build_s"},
		{"kernel.lower", "kernel.lower_s"},
		{"kernel.batch_build", "kernel.batch_build_s"},
		{"partition.plan", "partition.plan_s"},
		{"repcut.lower", "repcut.lower_s"},
	} {
		v := median(tr.durations(s.span))
		other -= v
		r.setLayer(s.metric, v)
	}
	r.setLayer("sim.setup_other_s", other)
	r.setLayer("trace.setup_s", setupS)
}

// setDesignLayers records the compiled design's size.
func (r *report) setDesignLayers(st sim.Stats) {
	r.setLayer("oim.ops", float64(st.Ops))
	r.setLayer("oim.layers", float64(st.Layers))
	r.setLayer("oim.slots", float64(st.Slots))
}
