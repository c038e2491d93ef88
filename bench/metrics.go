package main

import (
	"strings"

	"swallow/internal/harness"
)

// metricDecl declares one metric. BENCHMARK.json lists the same
// names, units, directions and bounds (bench_test.go holds the two
// together); the layer, the prediction and the exactness live here
// and in README.md, because that file's schema has no room for them.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it worse.
	Bound float64
	// Exact marks a count that repeats bit for bit on one seed; any
	// difference between two result sets is a failure.
	Exact bool
	// Moves names the end-to-end metric and workload this layer metric
	// is predicted to move.
	Moves string
}

// workloadDecl names a workload and says why it exists.
type workloadDecl struct {
	Name string
	Why  string
	make func(seed int64) runner
}

var workloads = []workloadDecl{
	{"sim-compute", "16 cores run the heavy compute mix with the network idle: the XS1 issue loop and turbo batching are the whole cost",
		func(seed int64) runner { return newSimCompute(seed) }},
	{"sim-comm", "16 word streams cross chip, board and cable links on a 64-core machine: kernel events and the NoC dominate, batches stay short",
		func(seed int64) runner { return newSimComm(seed) }},
	{"paper-registry", "regenerates all 21 paper artifacts with swallow-tables defaults: sweeps, pool, snapshots, power chain and render, checked against golden hashes",
		func(seed int64) runner { return newRegistry(seed) }},
	{"serve-cold", "router and two workers over loopback, every request a new key: miss, queue, compile, simulate, store write; simulation dominates",
		func(seed int64) runner { return newServe(seed, false) }},
	{"serve-warm", "same fleet replaying a 64-key working set through 16-entry memory caches: memory and disk hits only, no simulation",
		func(seed int64) runner { return newServe(seed, true) }},
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and reported by every workload. The bounds are three
// times the widest spread between ten seeds seen on the reference box
// (README.md, "First numbers"), up to the contract's cap of 0.25.
var endToEnd = []metricDecl{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// spanNames are the spans bench/ records around its calls into the
// layers; span.self_pct.<name> is each one's share of all self time.
var spanNames = []string{
	"core.reset", "workload.build", "core.load", "core.run", "power.report",
	"harness.run", "report.render", "client.request", "api.queue", "api.render",
}

// perLayer are the metrics of single layers, reported by a traced
// run. A workload reports 0 for a metric of a layer it does not use.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	ms := []metricDecl{
		{Name: "failed_ratio", Unit: "ratio", Better: "lower", Moves: "must stay 0 everywhere"},
		{Name: "sim_minstr_per_s", Unit: "Minstr/s", Better: "higher", Moves: "ops_per_s on sim-compute, sim-comm"},
		{Name: "paper_err_mean_pct", Unit: "%", Better: "lower", Exact: true, Moves: "fidelity on paper-registry; a speed-up leaves it identical"},
		{Name: "paper_err_max_pct", Unit: "%", Better: "lower", Exact: true, Moves: "fidelity on paper-registry; a speed-up leaves it identical"},

		{Name: "sim.events_fired", Unit: "count", Better: "lower", Exact: true, Moves: "ops_per_s on sim-comm"},
		{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower", Moves: "ops_per_s on sim-comm"},
		{Name: "sim.timer_ns_per_fire", Unit: "ns", Better: "lower", Moves: "ops_per_s on sim-comm"},
		{Name: "sim.timer_allocs_per_fire", Unit: "count", Better: "lower", Moves: "must stay 0"},

		{Name: "xs1.instrs", Unit: "count", Better: "lower", Exact: true, Moves: "sim_minstr_per_s on sim-compute"},
		{Name: "xs1.host_ns_per_instr", Unit: "ns", Better: "lower", Moves: "sim_minstr_per_s on sim-compute"},
		{Name: "xs1.batch_len", Unit: "instr", Better: "higher", Moves: "sim_minstr_per_s on sim-compute; short and unmoved on sim-comm"},
		{Name: "xs1.decode_hit_ratio", Unit: "ratio", Better: "higher", Moves: "sim_minstr_per_s on sim-compute"},
		{Name: "workload.build_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on sim-compute, sim-comm"},

		{Name: "noc.tokens", Unit: "count", Better: "lower", Exact: true, Moves: "ops_per_s on sim-comm; none on sim-compute"},
		{Name: "noc.host_ns_per_token", Unit: "ns", Better: "lower", Moves: "ops_per_s on sim-comm"},
		{Name: "noc.link_energy_uj", Unit: "uJ", Better: "lower", Exact: true, Moves: "simulated statistic; a speed-up leaves it identical"},

		{Name: "power.sample_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p90 on paper-registry (adc, fig2)"},
		{Name: "power.trace_us_per_sample", Unit: "us", Better: "lower", Moves: "op_ms_p90 on paper-registry (adc, fig2)"},

		{Name: "core.build_ms_p50", Unit: "ms", Better: "lower", Moves: "setup_s"},
		{Name: "core.checkout_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on serve-cold"},
		{Name: "core.reset_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on sim-compute, sim-comm"},
		{Name: "core.snapshot_us_p50", Unit: "us", Better: "lower", Moves: "ops_per_s on paper-registry (boot-sweep)"},
		{Name: "core.restore_us_p50", Unit: "us", Better: "lower", Moves: "ops_per_s on paper-registry (boot-sweep)"},
		{Name: "core.pool_reuse_ratio", Unit: "ratio", Better: "higher", Moves: "ops_per_s on paper-registry, serve-cold"},
		{Name: "core.run_allocs_per_op", Unit: "count", Better: "lower", Moves: "must stay 0 on sim-compute"},
	}
	for _, name := range harness.Names() {
		ms = append(ms, metricDecl{Name: "harness.run_ms." + name, Unit: "ms", Better: "lower",
			Moves: "ops_per_s, op_ms_p90 on paper-registry"})
	}
	ms = append(ms, []metricDecl{
		{Name: "harness.pass_ms_p50", Unit: "ms", Better: "lower", Moves: "ops_per_s on paper-registry"},
		{Name: "report.render_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on paper-registry (about 0.1% of a pass)"},

		{Name: "scenario.parse_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on serve-warm (paid twice per POST)"},
		{Name: "scenario.compile_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on serve-warm (paid twice per POST)"},

		{Name: "cache.hit_ns_p50", Unit: "ns", Better: "lower", Moves: "op_ms_p50 on serve-warm"},
		{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_ms_p50 on serve-warm"},
		{Name: "cache.evictions", Unit: "count", Better: "lower", Moves: "op_ms_p90 on serve-warm"},
		{Name: "cache.shared_fills", Unit: "count", Better: "higher", Moves: "ops_per_s on serve-warm"},

		{Name: "store.get_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p90 on serve-warm"},
		{Name: "store.put_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on serve-cold"},
		{Name: "store.hits", Unit: "count", Better: "higher", Moves: "0 on serve-cold, about half the ops on serve-warm"},
		{Name: "store.writes", Unit: "count", Better: "lower", Moves: "one per op on serve-cold, 0 on serve-warm"},
		{Name: "store.bytes_written", Unit: "bytes", Better: "lower", Moves: "op_ms_p50 on serve-cold"},
		{Name: "store.corrupt", Unit: "count", Better: "lower", Moves: "must stay 0"},

		{Name: "queue.wait_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p90 on serve-cold"},
		{Name: "queue.run_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p90 on serve-cold"},
		{Name: "queue.rejected", Unit: "count", Better: "lower", Moves: "must stay 0 at this load"},

		{Name: "cluster.router_hop_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50, ops_per_s on serve-warm"},
		{Name: "cluster.ring_lookup_ns_p50", Unit: "ns", Better: "lower", Moves: "op_ms_p50 on serve-warm"},
		{Name: "cluster.affinity_ratio", Unit: "ratio", Better: "higher", Moves: "cache.hit_ratio on serve-warm"},
		{Name: "cluster.failovers", Unit: "count", Better: "lower", Moves: "must stay 0"},
		{Name: "cluster.worker_max_share", Unit: "ratio", Better: "lower", Moves: "ops_per_s on serve-warm, serve-cold"},

		{Name: "api.miss_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on serve-cold"},
		{Name: "api.hit_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on serve-warm"},
		{Name: "api.disk_hit_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p90 on serve-warm"},
		{Name: "api.render_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on serve-cold"},
		{Name: "api.overhead_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on serve-warm"},
		{Name: "api.tier_share.hit", Unit: "ratio", Better: "higher", Moves: "op_ms_p50 on serve-warm"},
		{Name: "api.tier_share.disk", Unit: "ratio", Better: "lower", Moves: "op_ms_p90 on serve-warm"},
		{Name: "api.tier_share.peer", Unit: "ratio", Better: "lower", Moves: "0 while no worker leaves the ring"},
		{Name: "api.tier_share.miss", Unit: "ratio", Better: "lower", Moves: "1 on serve-cold, 0 on serve-warm"},

		{Name: "client.overhead_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on serve-warm"},
		{Name: "client.op_ms_tail", Unit: "ms", Better: "lower", Moves: "ungated: the tail at client.tail_percentile"},
		{Name: "client.tail_percentile", Unit: "%", Better: "higher", Moves: "highest percentile with ten samples beyond it"},
		{Name: "client.op_samples", Unit: "count", Better: "higher", Moves: "sample count behind every percentile"},
		{Name: "client.rounds", Unit: "count", Better: "higher", Moves: "rounds behind every median"},
		{Name: "client.count", Unit: "count", Better: "higher", Moves: "closed-loop clients: min(2, nproc), 1 on the sim workloads"},

		{Name: "trace.recorder_ns_per_instr_delta", Unit: "ns", Better: "lower", Moves: "cost of the simulator's flight recorder on the sim workloads"},
		{Name: "trace.bench_overhead_pct", Unit: "%", Better: "lower", Moves: "traced against untraced rounds of the same run"},
	}...)
	for _, name := range spanNames {
		ms = append(ms, metricDecl{Name: "span.self_pct." + name, Unit: "%", Better: "lower",
			Moves: "share of all span self time; bounds what a faster " + strings.SplitN(name, ".", 2)[0] + " layer can save"})
	}
	return append(ms, []metricDecl{
		{Name: "runtime.alloc_kb_per_op", Unit: "KiB", Better: "lower", Moves: "ungated: collector timing makes it drift"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "ungated"},
		{Name: "runtime.sys_mb", Unit: "MiB", Better: "lower", Moves: "ungated: host memory"},
		{Name: "runtime.calib_ns", Unit: "ns", Better: "lower", Moves: "host-speed reference; -compare distrusts sets that differ by 10%"},
	}...)
}
