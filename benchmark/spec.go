package main

// The benchmark's metrics. BENCHMARK.json at the repository root declares the
// same names, units, directions and bounds; TestBenchmarkQuick holds the two
// in step, and README.md explains each one.

// endToEnd is a metric a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
type endToEnd struct {
	name, unit, better string
	// bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	bound float64
}

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.24},
	{"latency_p50_ms", "ms", "lower", 0.24},
	{"latency_tail_ms", "ms", "lower", 0.24},
	{"live_heap_mb", "MB", "lower", 0.1},
}

// layerMetric is a metric of one module, named <module>.<metric>. README.md
// names the end-to-end metric each should move and the workloads it moves
// on. A layer a workload does not exercise reports 0 there.
type layerMetric struct {
	name, unit, better string
}

var layerMetrics = []layerMetric{
	{"workload.gen_s", "s", "lower"},
	{"zoo.build_s", "s", "lower"},
	{"planner.precompute_s", "s", "lower"},
	{"planner.share", "ratio", "lower"},
	{"planner.planned", "count", "lower"},
	{"planner.hit_ratio", "ratio", "higher"},
	{"planner.plan_p50_us", "us", "lower"},
	{"planner.plan_p99_us", "us", "lower"},
	{"planner.evictions", "count", "lower"},
	{"planner.deduped", "count", "higher"},
	{"policy.warm_fraction", "ratio", "higher"},
	{"policy.transform_fraction", "ratio", "higher"},
	{"policy.cold_fraction", "ratio", "lower"},
	{"simulate.sim_p50_ms", "ms", "lower"},
	{"simulate.sim_p99_ms", "ms", "lower"},
	{"simulate.run_ns_per_req", "ns", "lower"},
	{"simulate.allocs_per_req", "count", "lower"},
	{"online.invoke_us", "us", "lower"},
	{"online.invoke_contended_us", "us", "lower"},
	{"online.lock_wait_us", "us", "lower"},
	{"metrics.aggregate_ms", "ms", "lower"},
	{"metrics.stats_read_us", "us", "lower"},
	{"faults.crashes", "count", "lower"},
	{"faults.retries", "count", "lower"},
	{"faults.fallbacks", "count", "lower"},
	{"faults.dropped", "count", "lower"},
	{"supervisor.watchdog_cancels", "count", "lower"},
	{"supervisor.breaker_short_circuits", "count", "lower"},
	{"supervisor.hedges", "count", "lower"},
	{"health.quarantines", "count", "lower"},
	{"gateway.handler_p50_us", "us", "lower"},
	{"gateway.handler_p99_us", "us", "lower"},
	{"gateway.codec_us", "us", "lower"},
	{"gateway.shed", "count", "lower"},
	{"gateway.max_rps", "req/s", "higher"},
	{"gateway.register_ms", "ms", "lower"},
	{"gateway.register_p50_ms", "ms", "lower"},
	{"gateway.register_p90_ms", "ms", "lower"},
	{"transport.self_us", "us", "lower"},
	{"controlplane.forward_fraction", "ratio", "lower"},
	{"controlplane.proxy_self_us", "us", "lower"},
	{"controlplane.forward_hop_us", "us", "lower"},
	{"controlplane.mirror_ms", "ms", "lower"},
	{"controlplane.mirror_errors", "count", "lower"},
	{"ring.owner_ns", "ns", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.peak_heap_mb", "MB", "lower"},
	{"loadgen.p99_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.achieved_ratio", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
	{"trace.self_sum_error", "ratio", "lower"},
}

// workloadSpec is one workload: its name and its body. BENCHMARK.json and
// README.md say why each is in the benchmark.
type workloadSpec struct {
	name string
	run  func(*runConfig) (*result, error)
}

var workloads = []workloadSpec{
	{"replay-zoo", func(rc *runConfig) (*result, error) { return runReplay(rc, zooFixture) }},
	{"replay-1m", func(rc *runConfig) (*result, error) { return runReplay(rc, millionFixture) }},
	{"serve-steady", runServeSteady},
	{"serve-churn", runServeChurn},
}
