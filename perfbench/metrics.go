package main

import "repro/internal/core"

// metricSpec is one metric of the benchmark: its name, unit and direction,
// and the bound by which an end-to-end metric may worsen before a change
// counts as a regression. For a per-layer metric or a detail, Moves names
// the end-to-end metric (and its workload) it should move, so a later
// change can cite the pair by name. Workload names the one workload that
// reports a detail; end-to-end and per-layer metrics are reported by
// every workload.
type metricSpec struct {
	Name     string
	Unit     string
	Better   string // "lower" or "higher"
	Bound    float64
	Workload string
	Moves    string
}

// Workload names.
const (
	wModes   = "modes-scalar"
	wService = "service-mixed"
	wFault   = "fault-campaign"
)

// workloadWhy records why each workload exists; BENCHMARK.json carries
// the same text.
var workloadWhy = []struct{ Name, Why string }{
	{wModes, "every mode in core.Modes() run serially on bzip2, mesa and mcf from captured traces: core pipeline work with no runner or service"},
	{wService, "two closed-loop clients POST small grids over loopback; seeded mix of new, repeated and overlapping grids exercises the cache"},
	{wFault, "DIE-IRB gzip fault campaign at a sparse and a dense FU rate: the batch planner's winning and losing cases side by side"},
}

// scalarProfiles are the modes-scalar benchmarks: ALU-bound integer code
// (bzip2), reuse-rich FP with high IPC (mesa) and memory-bound code whose
// cycles are mostly idle (mcf).
var scalarProfiles = []string{"bzip2", "mesa", "mcf"}

// stages are the (*core.Core) pipeline functions whose cumulative CPU
// share of (*core.Core).Run the traced run reports, keyed by metric
// suffix.
var stages = []struct{ Name, Func string }{
	{"fetch", "fetch"},
	{"dispatch", "dispatch"},
	{"select_issue", "selectIssue"},
	{"mem_issue", "memIssue"},
	{"writeback", "writeback"},
	{"commit", "commit"},
	{"recover", "recover"},
}

// layers are the layers a CPU profile sample is charged to, each with the
// packages that make it up (under repro/internal/, or main for the
// benchmark's own code). A sample is charged to the innermost frame of its
// stack that belongs to a layer, and to "other" (the Go runtime's
// background work, the HTTP server's connection handling) when no frame
// does.
var layers = []struct {
	Name     string
	Packages []string
}{
	{"service", []string{"service", "service/api"}},
	{"runner", []string{"runner"}},
	{"sim", []string{"sim", "stats"}},
	{"fsim", []string{"fsim"}},
	{"workload", []string{"workload", "program"}},
	{"analysis", []string{"analysis"}},
	{"core", []string{"core", "bpred", "cache", "isa"}},
	{"irb", []string{"irb"}},
	{"trb", []string{"trb"}},
	{"fault", []string{"fault"}},
	{"bench", []string{"main"}},
	{"other", nil},
}

func modeNames() []string {
	var out []string
	for _, mi := range core.Modes() {
		out = append(out, string(mi.Mode))
	}
	return out
}

// endToEnd lists the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports every one of them; what a unit of
// work is depends on the workload (see NOTES.md).
func endToEnd() []metricSpec {
	return []metricSpec{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "ok_frac", Unit: "frac", Better: "higher", Bound: 0.01},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "insns_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	}
}

// primary is the end-to-end metric the tracing overhead is reported on.
const primary = "insns_per_s"

// perLayer lists the traced run's metrics of single layers. Every
// workload reports every one of them, from its own cells and its own CPU
// profile; a layer the workload does not exercise reads 0.
func perLayer() []metricSpec {
	const (
		speed = "insns_per_s and wall_s on every workload that spends CPU in the layer"
		pipe  = "insns_per_s on modes-scalar; wall_s on fault-campaign"
		sims  = "explains insns_per_s on modes-scalar; a speed-only change leaves it unchanged"
		camp  = "wall_s on fault-campaign; a speed-only change leaves it unchanged"
	)
	var out []metricSpec
	add := func(name, unit, better, moves string) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	add("trace.overhead_frac", "frac", "lower",
		"none: how much lower insns_per_s read in the traced pass than in an untraced pass in the same process")
	add("go.gc_share", "frac", "lower", speed)
	add("go.allocs_per_op", "count", "lower", speed)
	for _, l := range layers {
		add("cpu_share."+l.Name, "frac", "lower", speed)
	}
	for _, s := range stages {
		add("core.stage_share."+s.Name, "frac", "lower", pipe)
	}
	add("core.ipc", "insn/cycle", "higher", sims)
	add("core.ready_not_issued_per_cycle", "count", "lower", sims)
	add("irb.pc_hit_rate", "frac", "higher", sims)
	add("irb.reuse_rate", "frac", "higher", sims)
	add("trb.block_hit_rate", "frac", "higher", sims)
	add("trb.trace_reuse_rate", "frac", "higher", sims)
	add("fault.injected", "count", "higher", camp)
	add("core.fault_recoveries", "count", "lower", camp)
	return out
}

// details lists what single workloads report beyond the common metrics,
// printed as "# detail" lines and left out of the JSON result: the
// untraced run's workload-specific end-to-end figures and the traced
// run's workload-specific layer figures.
func details() []metricSpec {
	pipe := func(m string) string { return "insns_per_s on modes-scalar (the " + m + " cells)" }
	const (
		prep = "setup_s on modes-scalar and fault-campaign"
		hit  = "wall_s on service-mixed, through its hit latencies"
		miss = "wall_s on service-mixed, through its miss latencies"
		camp = "wall_s on fault-campaign"
		e2e  = "itself: a workload-specific end-to-end figure"
	)
	var out []metricSpec
	add := func(name, unit, better, workload, moves string) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better, Workload: workload, Moves: moves})
	}
	modes := modeNames()
	for _, m := range modes {
		add("insns_per_s."+m, "1/s", "higher", wModes, e2e)
	}
	add("hit_p50_ms", "ms", "lower", wService, e2e)
	add("hit_p90_ms", "ms", "lower", wService, e2e)
	add("miss_p50_ms", "ms", "lower", wService, e2e)
	add("miss_p90_ms", "ms", "lower", wService, e2e)
	add("req_per_s", "1/s", "higher", wService, e2e)
	for _, m := range modes {
		for _, p := range scalarProfiles {
			add("core.ns_per_cycle."+m+"."+p, "ns", "lower", wModes, pipe(m))
		}
	}
	for _, m := range modes {
		add("core.allocs_per_cell."+m, "count", "lower", wModes, pipe(m))
		add("core.ipc."+m, "insn/cycle", "higher", wModes, "explains "+pipe(m))
	}
	add("sim.capture_ms.p50", "ms", "lower", wModes, prep)
	add("fsim.capture_insns_per_s", "1/s", "higher", wModes, prep)
	add("workload.generate_ms.p50", "ms", "lower", wModes, prep)
	add("analysis.check_ms.p50", "ms", "lower", wModes, prep)
	add("sim.cell_setup_ms.p50", "ms", "lower", wModes, "insns_per_s on modes-scalar")
	add("runner.fingerprint_us.p50", "us", "lower", wService, hit)
	add("service.overhead_ms.p50", "ms", "lower", wService, hit)
	add("service.resp_kb.mean", "kB", "lower", wService, hit)
	add("service.cache_hit_ratio", "frac", "higher", wService, hit)
	add("service.queue_wait_ms.p50", "ms", "lower", wService, miss)
	add("service.exec_ms.p50", "ms", "lower", wService, miss)
	for _, set := range []string{"sparse", "dense"} {
		add("runner.campaign_s."+set, "s", "lower", wFault, camp)
		add("runner.batch.diverged_frac."+set, "frac", "lower", wFault, camp)
		add("fault.injected."+set, "count", "higher", wFault, camp)
		add("core.fault_recoveries."+set, "count", "lower", wFault, camp)
	}
	add("core.mttr_cycles.dense", "cycles", "lower", wFault, camp)
	return out
}
