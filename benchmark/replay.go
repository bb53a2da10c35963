package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/workload"
	"repro/internal/zoo"
)

// replayFixture is one replay workload's inputs: the cluster, the functions
// and the traces replayed in turn.
type replayFixture struct {
	cfg    simulate.Config
	fns    []*simulate.Function
	traces []*workload.Trace
	// zooTime and genTime are the set-up time spent building model graphs
	// and generating traces.
	zooTime, genTime time.Duration
}

// subSeed derives the i-th input seed of a workload from the run's seed.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// zooFixture builds replay-zoo: 256 functions, each bound to its own model
// (the 10 BERT variants and the first 246 Imgclsmob CNNs), hash-placed on 16
// nodes × 8 containers under the Optimus policy with a mild fault mix and
// the full supervision stack. Four 24 h AzureLike traces are replayed in
// turn: one trace's class mix moves replay speed by about 10% from seed to
// seed, four average that out.
func zooFixture(rc *runConfig, rec *recorder, root int64) replayFixture {
	var fx replayFixture
	var names []string
	fx.zooTime = rec.step("zoo.build", root, 0, func(int64) {
		bz, img := zoo.BERTZoo(), zoo.Imgclsmob()
		add := func(r *zoo.Registry, n string) {
			fx.fns = append(fx.fns, &simulate.Function{Name: n, Model: r.MustGet(n)})
			names = append(names, n)
		}
		for _, n := range bz.Names() {
			add(bz, n)
		}
		for _, n := range img.Names()[:246] {
			add(img, n)
		}
	})
	traces, horizon := 4, 24*time.Hour
	if rc.quick {
		traces, horizon = 1, 3*time.Hour
	}
	fx.genTime = rec.step("workload.gen", root, 0, func(int64) {
		for i := 0; i < traces; i++ {
			fx.traces = append(fx.traces, workload.AzureLike(names, horizon, subSeed(rc.seed, i)))
		}
	})
	fx.cfg = simulate.Config{
		Nodes:             16,
		ContainersPerNode: 8,
		Policy:            policy.Optimus{},
		Placement:         simulate.HashPlacement(names, 16),
		Seed:              rc.seed,
		Faults:            faults.Rates{Crash: 0.01, Hang: 0.05, Slow: 0.01, Flaky: 0.05, Bandwidth: 0.02},
		WatchdogFactor:    2,
		Breaker:           supervisor.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Minute},
		Health:            health.Config{Enabled: true},
		Retry:             supervisor.BackoffConfig{Base: 50 * time.Millisecond},
		Hedge:             supervisor.HedgeConfig{Percentile: 90},
	}
	return fx
}

// millionFixture builds replay-1m: the 8-group fixture of the scale
// experiment (internal/experiments/scale.go) — 1024 functions cycling 10
// models, 64 nodes × 32 containers in 8 disjoint groups of 8 nodes, no faults
// — under a 30 min Poisson trace of about one million requests.
func millionFixture(rc *runConfig, rec *recorder, root int64) replayFixture {
	const groups, nodesPerGroup, fnsPerGroup = 8, 8, 128
	horizon := 30 * time.Minute
	requests := 1_000_000.0
	if rc.quick {
		requests = 50_000
	}
	var fx replayFixture
	var models []*model.Graph
	fx.zooTime = rec.step("zoo.build", root, 0, func(int64) {
		img, bz := zoo.Imgclsmob(), zoo.BERTZoo()
		for _, n := range []string{
			"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "resnet101-imagenet",
			"vgg11-imagenet", "vgg16-imagenet", "vgg19-imagenet", "densenet121-imagenet",
		} {
			models = append(models, img.MustGet(n))
		}
		models = append(models, bz.MustGet("bert-tiny"), bz.MustGet("bert-mini"))
	})
	nfns := groups * fnsPerGroup
	placement := make(map[string][]int, nfns)
	rates := make(map[string]float64, nfns)
	perFn := requests / horizon.Seconds() / float64(nfns)
	for i := 0; i < nfns; i++ {
		name := fmt.Sprintf("fn-%04d", i)
		fx.fns = append(fx.fns, &simulate.Function{Name: name, Model: models[i%len(models)]})
		g := i % groups
		nodes := make([]int, nodesPerGroup)
		for j := range nodes {
			nodes[j] = g*nodesPerGroup + j
		}
		placement[name] = nodes
		rates[name] = perFn * (0.25 + 1.5*float64(i%8)/7)
	}
	fx.genTime = rec.step("workload.gen", root, 0, func(int64) {
		fx.traces = []*workload.Trace{workload.PoissonRates(rates, horizon, subSeed(rc.seed, 0))}
	})
	fx.cfg = simulate.Config{
		Nodes:             groups * nodesPerGroup,
		ContainersPerNode: 32,
		Policy:            policy.Optimus{},
		Placement:         placement,
		Seed:              rc.seed,
	}
	return fx
}

// aggregates is what every replay of one trace must reproduce exactly.
type aggregates struct {
	n        int
	mean     time.Duration
	p50, p99 time.Duration
	kinds    [8]int
	faults   metrics.FaultStats
}

// replayStats is one replay's measurements.
type replayStats struct {
	reqs        int
	wall        time.Duration
	aggregate   time.Duration
	allocs      uint64
	agg         aggregates
	plans       planner.Counters
	planTimes   planner.PlanTimeStats
	quarantines int
	heapMB      float64
}

// replayOnce replays one trace from a fresh simulator (simulate.Run, the
// call behind System.Run and optimus-sim) and reads the aggregates the
// correctness check compares. With liveHeap it also measures the heap the
// finished replay holds.
func replayOnce(fx replayFixture, tr *workload.Trace, rec *recorder, liveHeap bool) (replayStats, error) {
	var st replayStats
	var req int64
	if rec != nil {
		req = rec.newID()
	}
	var err error
	rec.step("replay", 0, req, func(root int64) {
		m0 := mallocs()
		sim := simulate.New(fx.cfg, fx.fns)
		var col *metrics.Collector
		st.wall = rec.step("simulate.run", root, req, func(int64) { col, err = sim.Run(tr) })
		st.allocs = mallocs() - m0
		if err != nil {
			return
		}
		st.aggregate = rec.step("metrics.aggregate", root, req, func(int64) {
			p := col.Percentiles(50, 99)
			st.agg = aggregates{n: col.Len(), mean: col.MeanLatency(), p50: p[0], p99: p[1], faults: col.Faults}
			for k, n := range col.KindCounts() {
				st.agg.kinds[k] = n
			}
		})
		st.plans = sim.Env().Plans.Counters()
		st.planTimes = sim.Env().Plans.PlanTimes()
		st.quarantines = sim.Health().Summarize().Quarantines
		if liveHeap {
			st.heapMB = liveHeapMB()
			runtime.KeepAlive(sim)
			runtime.KeepAlive(col)
		}
	})
	if err != nil {
		return st, err
	}
	st.reqs = tr.Len()
	return st, nil
}

// replayPass is the replays of one measured pass: the fixture's traces
// replayed round-robin, at least one full round, and another round only
// while the last round's duration still fits in the budget.
type replayPass struct {
	rounds  []float64 // simulated requests per wall second of each round
	replays []replayStats
}

// runReplayPass runs a pass, checking each replay against the first replay
// of the same trace.
func runReplayPass(fx replayFixture, ref []aggregates, budget time.Duration, rec *recorder, res *result) replayPass {
	var p replayPass
	start := time.Now()
	var last time.Duration
	for len(p.rounds) == 0 || time.Since(start)+last <= budget {
		roundStart := time.Now()
		var reqs int
		var wall time.Duration
		for i, tr := range fx.traces {
			st, err := replayOnce(fx, tr, rec, false)
			res.attempted++
			if err != nil {
				res.failed++
				res.fail("replay", err.Error())
				continue
			}
			if st.agg != ref[i] {
				res.failed++
				res.fail("replay aggregates", fmt.Sprintf("trace %d: replay gave %+v, first replay %+v", i, st.agg, ref[i]))
			} else if served := st.agg.n + st.agg.faults.Dropped; served != tr.Len() {
				res.failed++
				res.fail("replay accounting", fmt.Sprintf("trace %d: served %d + dropped %d != %d requests", i, st.agg.n, st.agg.faults.Dropped, tr.Len()))
			}
			reqs += st.reqs
			wall += st.wall
			p.replays = append(p.replays, st)
		}
		p.rounds = append(p.rounds, float64(reqs)/wall.Seconds())
		last = time.Since(roundStart)
	}
	return p
}

// runReplay is the body of both replay workloads.
func runReplay(rc *runConfig, build func(*runConfig, *recorder, int64) replayFixture) (*result, error) {
	res := newResult()
	heap := startHeapSampler()

	var fx replayFixture
	for i := 0; i < rc.setups(); i++ {
		d := rc.rec.step("setup", 0, 0, func(root int64) { fx = build(rc, rc.rec, root) })
		res.setup(d, map[string]time.Duration{"zoo.build_s": fx.zooTime, "workload.gen_s": fx.genTime})
	}

	// The first replay of each trace is the reference the others must
	// reproduce; it also warms the process, measures the heap a finished
	// replay holds, and is not timed.
	ref := make([]aggregates, len(fx.traces))
	for i, tr := range fx.traces {
		st, err := replayOnce(fx, tr, nil, true)
		if err != nil {
			return nil, err
		}
		ref[i] = st.agg
		res.e2e["live_heap_mb"] = max(res.e2e["live_heap_mb"], st.heapMB)
	}

	budget := rc.budget()
	gc0 := readGC()
	var pass replayPass
	if rc.rec != nil {
		untraced := runReplayPass(fx, ref, budget/2, nil, res)
		stop := startCPUProfile(rc.tracePath("cpu.pprof"), res)
		pass = runReplayPass(fx, ref, budget/2, rc.rec, res)
		stop()
		res.layer["trace.overhead"] = median(untraced.rounds)/median(pass.rounds) - 1
	} else {
		pass = runReplayPass(fx, ref, budget, nil, res)
	}
	cycles, pause := readGC().sub(gc0)

	walls := make([]time.Duration, 0, len(pass.replays))
	var nsPerReq, allocsPerReq, share, aggMS, simP50, simP99, planP50, planP99 []float64
	for _, st := range pass.replays {
		walls = append(walls, st.wall)
		nsPerReq = append(nsPerReq, float64(st.wall)/float64(st.reqs))
		allocsPerReq = append(allocsPerReq, float64(st.allocs)/float64(st.reqs))
		share = append(share, float64(st.planTimes.Total)/float64(st.wall))
		aggMS = append(aggMS, ms(st.aggregate))
		simP50 = append(simP50, ms(st.agg.p50))
		simP99 = append(simP99, ms(st.agg.p99))
		planP50 = append(planP50, us(st.planTimes.P50))
		planP99 = append(planP99, us(st.planTimes.P99))
	}
	sortDurations(walls)
	res.e2e["throughput_rps"] = median(pass.rounds)
	res.e2e["latency_p50_ms"] = ms(pct(walls, 50))
	res.e2e["latency_tail_ms"] = ms(pct(walls, 90))

	l := res.layer
	l["planner.share"] = median(share)
	l["planner.plan_p50_us"] = median(planP50)
	l["planner.plan_p99_us"] = median(planP99)
	l["simulate.run_ns_per_req"] = median(nsPerReq)
	l["simulate.allocs_per_req"] = median(allocsPerReq)
	l["simulate.sim_p50_ms"] = median(simP50)
	l["simulate.sim_p99_ms"] = median(simP99)
	l["metrics.aggregate_ms"] = median(aggMS)
	l["runtime.gc_cycles"] = cycles
	l["runtime.gc_pause_ms"] = pause

	// Counters over one round: every replay of a trace repeats them exactly.
	var hits, lookups, served, quarantines int
	var kinds [8]int
	var fs metrics.FaultStats
	for _, st := range pass.replays[:len(fx.traces)] {
		hits += st.plans.Hits
		lookups += st.plans.Hits + st.plans.Misses
		l["planner.planned"] += float64(st.plans.Planned)
		l["planner.evictions"] += float64(st.plans.Evictions)
		l["planner.deduped"] += float64(st.plans.Deduped)
		for k, n := range st.agg.kinds {
			kinds[k] += n
		}
		served += st.agg.n
		addFaults(&fs, st.agg.faults)
		quarantines += st.quarantines
	}
	l["planner.hit_ratio"] = ratio(hits, lookups)
	setKindShares(l, kinds, served)
	l["faults.crashes"] = float64(fs.Crashes)
	l["faults.retries"] = float64(fs.Retries)
	l["faults.fallbacks"] = float64(fs.TransformFallbacks)
	l["faults.dropped"] = float64(fs.Dropped)
	l["supervisor.watchdog_cancels"] = float64(fs.WatchdogCancels)
	l["supervisor.breaker_short_circuits"] = float64(fs.BreakerShortCircuits)
	l["supervisor.hedges"] = float64(fs.HedgedTransforms)
	l["health.quarantines"] = float64(quarantines)

	res.layer["runtime.peak_heap_mb"] = heap.stop()
	return res, nil
}

func addFaults(dst *metrics.FaultStats, f metrics.FaultStats) {
	dst.Crashes += f.Crashes
	dst.Retries += f.Retries
	dst.TransformFallbacks += f.TransformFallbacks
	dst.Dropped += f.Dropped
	dst.WatchdogCancels += f.WatchdogCancels
	dst.BreakerShortCircuits += f.BreakerShortCircuits
	dst.HedgedTransforms += f.HedgedTransforms
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setKindShares records the start-kind mix. Loads from scratch are cold
// starts, safeguard fallbacks, watchdog timeouts and breaker short-circuits.
func setKindShares(l map[string]float64, kinds [8]int, served int) {
	l["policy.warm_fraction"] = ratio(kinds[metrics.StartWarm], served)
	l["policy.transform_fraction"] = ratio(kinds[metrics.StartTransform], served)
	l["policy.cold_fraction"] = ratio(kinds[metrics.StartCold]+kinds[metrics.StartFallback]+
		kinds[metrics.StartTimeout]+kinds[metrics.StartBreaker], served)
}

// startCPUProfile writes a CPU profile to path until the returned function
// is called. A profile that cannot be written is noted and skipped: it is
// for people to read, not a metric.
func startCPUProfile(path string, res *result) (stop func()) {
	f, err := os.Create(path)
	if err != nil {
		res.note("cpu profile: %v", err)
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		res.note("cpu profile: %v", err)
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			res.note("cpu profile: %v", err)
		}
	}
}
