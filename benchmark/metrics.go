package main

// The names below are the benchmark's vocabulary: BENCHMARK.json declares
// the same sets (a test keeps the two in step) and later issues cite them
// verbatim. Renaming one breaks every recorded comparison.

// metricDef declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before it is a regression;
// per-layer metrics have none. Moves names the end-to-end metric and
// workload a per-layer metric is expected to move ("✗" where it must not).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Layer  string
	Moves  string
}

// workloadDef declares one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"sim-exact", "cycle-exact runs of compress, db, jess and mtrt with no monitoring: interpreter, cache, memory and GC do all the work, the sample path and serve layers none"},
	{"sim-monitored", "the same programs with PEBS sampling at interval 250 and co-allocation: adds the sample path and the opt Manager, the shape of the paper's figures 3 and 4"},
	{"sim-sampled", "the same programs in sampled mode: functional fast-forward, region scheduler and estimator replace most of the detailed cache path"},
	{"serve-hot", "two closed-loop clients repeat one primed fop request at one server: the result-cache hit path, no simulation"},
	{"fleet-hot", "the same traffic through a coordinator over two HTTP workers: adds exactly the routing hop to serve-hot"},
	{"serve-mixed", "seeded mix of hot, cold-unique, sampled and warm-start fop requests: cache inserts and evictions, engine workers and snapshots run beside the hit path"},
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them: a sim workload's "request" is one whole bench run, a serve
// workload's simulated instructions are the ones its responses carry.
var endToEnd = []metricDef{
	{Name: "sim_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: 0.01},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// ownBounds are the bounds -repeat applies to the workload-specific
// user-visible metrics that the driver's schema cannot carry as end-to-end
// (they do not exist on every workload, or are exactly 0 when all is well).
// est_err_pct_max is bounded in points, the others as a share.
var ownBounds = map[string]float64{
	"hit_p50_us":      0.25,
	"hit_p99_us":      0.25,
	"miss_p50_ms":     0.25,
	"l1_misses":       0,
	"failed_frac":     0,
	"est_err_pct_max": 0.1,
}

// perLayer metrics come from the traced run. The first block is measured on
// the workload itself and reads 0 where the workload does not reach the
// layer; the probes below it time calls into one layer's public functions
// and are the same whichever workload is being traced.
var perLayer = []metricDef{
	// User-visible, workload-specific.
	{Name: "hit_p50_us", Unit: "us", Better: "lower", Layer: "client", Moves: "latency of responses with X-Hpmvmd-Cache: hit @ serve-*, fleet-hot"},
	{Name: "hit_p99_us", Unit: "us", Better: "lower", Layer: "client", Moves: "tail of the same @ serve-*, fleet-hot"},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "cold-unique class only @ serve-mixed"},
	{Name: "est_err_pct_max", Unit: "%", Better: "lower", Layer: "bench", Moves: "max |estimated-exact|/exact cycles @ sim-sampled"},
	{Name: "l1_misses", Unit: "count", Better: "lower", Layer: "hw/cache", Moves: "explains sim_cycles @ sim-*"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Layer: "harness", Moves: "failed/attempted, must be 0 @ all"},

	// Workload counts and rates.
	{Name: "cache.l1_miss_rate", Unit: "ratio", Better: "lower", Layer: "hw/cache", Moves: "sim_cycles, l1_misses @ sim-*"},
	{Name: "cache.l2_miss_rate", Unit: "ratio", Better: "lower", Layer: "hw/cache", Moves: "sim_cycles @ sim-*"},
	{Name: "cache.dtlb_miss_rate", Unit: "ratio", Better: "lower", Layer: "hw/cache", Moves: "sim_cycles @ sim-*"},
	{Name: "cache.hwprefetch_accuracy", Unit: "ratio", Better: "higher", Layer: "hw/cache", Moves: "sim_cycles @ sim-*"},
	{Name: "pebs.samples_taken", Unit: "count", Better: "lower", Layer: "hw/pebs", Moves: "sim_minstr_per_s @ sim-monitored; ✗ sim-exact"},
	{Name: "pebs.dropped", Unit: "count", Better: "lower", Layer: "hw/pebs", Moves: "sim_minstr_per_s @ sim-monitored"},
	{Name: "pebs.interrupts", Unit: "count", Better: "lower", Layer: "hw/pebs", Moves: "sim_minstr_per_s @ sim-monitored"},
	{Name: "monitor.polls", Unit: "count", Better: "lower", Layer: "monitor", Moves: "sim_minstr_per_s @ sim-monitored"},
	{Name: "monitor.samples_read", Unit: "count", Better: "higher", Layer: "monitor", Moves: "read >= decoded + dropped @ sim-monitored"},
	{Name: "monitor.samples_decoded", Unit: "count", Better: "higher", Layer: "monitor", Moves: "sim_minstr_per_s @ sim-monitored"},
	{Name: "monitor.samples_dropped", Unit: "count", Better: "lower", Layer: "monitor", Moves: "sim_minstr_per_s @ sim-monitored"},
	{Name: "monitor.fields_attributed", Unit: "count", Better: "higher", Layer: "monitor", Moves: "sim_cycles @ sim-monitored"},
	{Name: "monitor.cycles_share", Unit: "ratio", Better: "lower", Layer: "monitor", Moves: "sim_cycles @ sim-monitored"},
	{Name: "opt.coalloc.decisions", Unit: "count", Better: "higher", Layer: "opt", Moves: "sim_cycles @ sim-monitored; identical across refactors"},
	{Name: "opt.coalloc.reverts", Unit: "count", Better: "lower", Layer: "opt", Moves: "sim_cycles @ sim-monitored"},
	{Name: "coalloc.pairs", Unit: "count", Better: "higher", Layer: "coalloc", Moves: "sim_cycles, l1_misses @ sim-monitored"},
	{Name: "gc.minor", Unit: "count", Better: "lower", Layer: "gc", Moves: "sim_cycles @ sim-*"},
	{Name: "gc.major", Unit: "count", Better: "lower", Layer: "gc", Moves: "sim_cycles @ sim-*"},
	{Name: "gc.cycles_share", Unit: "ratio", Better: "lower", Layer: "gc", Moves: "sim_cycles @ sim-*"},
	{Name: "gc.fragmentation", Unit: "ratio", Better: "lower", Layer: "gc", Moves: "sim_cycles @ sim-*"},
	{Name: "vm.mcmap_bytes", Unit: "bytes", Better: "lower", Layer: "vm", Moves: "peak_rss_mb @ sim-*"},
	{Name: "core.run_ms.compress", Unit: "ms", Better: "lower", Layer: "core", Moves: "decomposes sim_minstr_per_s @ sim-*"},
	{Name: "core.run_ms.db", Unit: "ms", Better: "lower", Layer: "core", Moves: "decomposes sim_minstr_per_s @ sim-*"},
	{Name: "core.run_ms.jess", Unit: "ms", Better: "lower", Layer: "core", Moves: "decomposes sim_minstr_per_s @ sim-*"},
	{Name: "core.run_ms.mtrt", Unit: "ms", Better: "lower", Layer: "core", Moves: "decomposes sim_minstr_per_s @ sim-*"},
	{Name: "bench.sampled_detailed_frac", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "trades sim_minstr_per_s against est_err_pct_max @ sim-sampled"},
	{Name: "bench.sampled_ci_covers", Unit: "count", Better: "higher", Layer: "bench", Moves: "programs (of 4) whose 95% CI holds the exact cycles @ sim-sampled"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Moves: "rps @ serve-*, fleet-hot"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Layer: "serve", Moves: "rps @ serve-mixed"},
	{Name: "serve.singleflight_shared", Unit: "count", Better: "higher", Layer: "serve", Moves: "rps @ serve-mixed"},
	{Name: "serve.queue_rejected", Unit: "count", Better: "lower", Layer: "serve", Moves: "failed_frac @ serve-mixed"},
	{Name: "serve.snapshot_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Moves: "serve.warm_p50_ms @ serve-mixed"},
	{Name: "serve.sampled_p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "rps @ serve-mixed"},
	{Name: "serve.warm_p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "rps @ serve-mixed"},
	{Name: "fleet.routed", Unit: "count", Better: "higher", Layer: "serve/fleet", Moves: "rps @ fleet-hot"},
	{Name: "fleet.sticky", Unit: "count", Better: "higher", Layer: "serve/fleet", Moves: "rps @ fleet-hot"},
	{Name: "fleet.stolen", Unit: "count", Better: "lower", Layer: "serve/fleet", Moves: "rps @ fleet-hot"},
	{Name: "fleet.failovers", Unit: "count", Better: "lower", Layer: "serve/fleet", Moves: "failed_frac @ fleet-hot"},
	{Name: "fleet.busiest_worker_share", Unit: "ratio", Better: "lower", Layer: "serve/fleet", Moves: "rps @ fleet-hot"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Layer: "harness", Moves: "—"},
	{Name: "ref.slice_ms_p50", Unit: "ms", Better: "lower", Layer: "harness", Moves: "—"},
	{Name: "ref.slice_max_over_min", Unit: "ratio", Better: "lower", Layer: "harness", Moves: "—"},

	// Probes: calls into one layer's public functions.
	{Name: "cpu.runloop_ns_per_instr", Unit: "ns", Better: "lower", Layer: "hw/cpu", Moves: "sim_minstr_per_s @ sim-exact (mtrt most); ✗ serve-hot"},
	{Name: "cpu.step_ns_per_instr", Unit: "ns", Better: "lower", Layer: "hw/cpu", Moves: "sim_minstr_per_s @ sim-exact"},
	{Name: "cache.hit_ns", Unit: "ns", Better: "lower", Layer: "hw/cache", Moves: "sim_minstr_per_s @ sim-exact"},
	{Name: "cache.miss_ns", Unit: "ns", Better: "lower", Layer: "hw/cache", Moves: "sim_minstr_per_s @ sim-exact"},
	{Name: "cache.hit_listener_ns", Unit: "ns", Better: "lower", Layer: "hw/cache", Moves: "sim_minstr_per_s @ sim-monitored"},
	{Name: "cache.functional_ns", Unit: "ns", Better: "lower", Layer: "hw/cache", Moves: "sim_minstr_per_s @ sim-sampled"},
	{Name: "cache.ifetch_ns", Unit: "ns", Better: "lower", Layer: "hw/cache", Moves: "opt.allkinds_host_ns_per_instr"},
	{Name: "cache.swprefetch_ns", Unit: "ns", Better: "lower", Layer: "hw/cache", Moves: "opt.allkinds_host_ns_per_instr"},
	{Name: "mem.load_ns", Unit: "ns", Better: "lower", Layer: "hw/mem", Moves: "sim_minstr_per_s @ sim-exact"},
	{Name: "mem.store_ns", Unit: "ns", Better: "lower", Layer: "hw/mem", Moves: "sim_minstr_per_s @ sim-exact"},
	{Name: "samplepath.host_us_per_sample", Unit: "us", Better: "lower", Layer: "hw/pebs+kernel/perfmon+monitor", Moves: "sim_minstr_per_s @ sim-monitored; ✗ sim-exact"},
	{Name: "opt.coalloc_host_ns_per_instr", Unit: "ns", Better: "lower", Layer: "opt", Moves: "sim_minstr_per_s @ sim-monitored"},
	{Name: "opt.allkinds_host_ns_per_instr", Unit: "ns", Better: "lower", Layer: "opt", Moves: "sim_minstr_per_s @ sim-monitored"},
	{Name: "opt.codelayout.decisions", Unit: "count", Better: "higher", Layer: "opt", Moves: "identical across refactors"},
	{Name: "opt.codelayout.reverts", Unit: "count", Better: "lower", Layer: "opt", Moves: "identical across refactors"},
	{Name: "opt.swprefetch.decisions", Unit: "count", Better: "higher", Layer: "opt", Moves: "identical across refactors"},
	{Name: "opt.swprefetch.reverts", Unit: "count", Better: "lower", Layer: "opt", Moves: "identical across refactors"},
	{Name: "cache.swprefetch_accuracy", Unit: "ratio", Better: "higher", Layer: "hw/cache", Moves: "sim_cycles with swprefetch on"},
	{Name: "gc.gencopy_host_ns_per_instr", Unit: "ns", Better: "lower", Layer: "gc", Moves: "sim_minstr_per_s @ sim-exact (jess, db)"},
	{Name: "vm.build_ms", Unit: "ms", Better: "lower", Layer: "vm", Moves: "setup_s @ sim-*; rps @ sim-*"},
	{Name: "vm.boot_ms", Unit: "ms", Better: "lower", Layer: "vm", Moves: "setup_s @ sim-*; rps @ sim-*; ✗ sim_minstr_per_s"},
	{Name: "vm.build_ms.fop", Unit: "ms", Better: "lower", Layer: "vm", Moves: "miss_p50_ms, rps @ serve-mixed"},
	{Name: "vm.boot_ms.fop", Unit: "ms", Better: "lower", Layer: "vm", Moves: "miss_p50_ms, rps @ serve-mixed"},
	{Name: "vm.adaptive_host_ns_per_instr", Unit: "ns", Better: "lower", Layer: "vm", Moves: "✗ every workload (Adaptive is off)"},
	{Name: "core.fingerprint_us", Unit: "us", Better: "lower", Layer: "core", Moves: "hit_p50_us @ serve-hot"},
	{Name: "core.snapshot_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "serve.warm_p50_ms, rps @ serve-mixed"},
	{Name: "core.snapshot_mb", Unit: "MB", Better: "lower", Layer: "core", Moves: "peak_rss_mb @ serve-mixed"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "serve.warm_p50_ms, rps @ serve-mixed"},
	{Name: "bench.engine_speedup_2jobs", Unit: "ratio", Better: "higher", Layer: "bench", Moves: "rps, miss_p50_ms @ serve-mixed"},
	{Name: "obs.observe_overhead_pct", Unit: "%", Better: "lower", Layer: "obs", Moves: "✗ every workload (Observe is off)"},
	{Name: "obs.export_ms", Unit: "ms", Better: "lower", Layer: "obs", Moves: "✗ every workload"},
	{Name: "api.request_decode_us", Unit: "us", Better: "lower", Layer: "api", Moves: "hit_p50_us @ serve-hot"},
	{Name: "api.stream_frame_us", Unit: "us", Better: "lower", Layer: "api", Moves: "serve.stream_hit_us"},
	{Name: "serve.runbytes_hit_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "hit_p50_us, rps @ serve-hot, fleet-hot; ✗ sim-*"},
	{Name: "serve.handler_hit_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "hit_p50_us, rps @ serve-hot, fleet-hot"},
	{Name: "client.run_hit_us", Unit: "us", Better: "lower", Layer: "client", Moves: "hit_p50_us, rps @ serve-hot"},
	{Name: "serve.http_self_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "handler minus RunBytes @ serve-hot"},
	{Name: "client.transport_self_us", Unit: "us", Better: "lower", Layer: "client", Moves: "client minus handler @ serve-hot"},
	{Name: "serve.miss_overhead_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "miss_p50_ms @ serve-mixed"},
	{Name: "serve.stream_hit_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "✗ every workload (no workload streams)"},
	{Name: "serve.statsz_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "✗ every workload"},
	{Name: "fleet.local_hit_us", Unit: "us", Better: "lower", Layer: "serve/fleet", Moves: "rps, hit_p50_us @ fleet-hot"},
	{Name: "fleet.remote_hit_us", Unit: "us", Better: "lower", Layer: "serve/fleet", Moves: "rps, hit_p50_us @ fleet-hot; ✗ serve-hot"},
	{Name: "fleet.route_self_us", Unit: "us", Better: "lower", Layer: "serve/fleet", Moves: "local minus serve.handler_hit_us @ fleet-hot"},
	{Name: "fleet.hop_self_us", Unit: "us", Better: "lower", Layer: "serve/fleet", Moves: "remote minus local @ fleet-hot"},
}

// declared indexes every metric by name.
var declared = func() map[string]metricDef {
	m := make(map[string]metricDef, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()
