// Command optimus-sim runs one configurable cluster simulation and prints
// the resulting service-time statistics, start-kind shares, and latency
// breakdown.
//
// Example:
//
//	optimus-sim -policy optimus -nodes 4 -containers 4 -workload azure -horizon 24h
//	optimus-sim -policy openwhisk -workload poisson -functions 30
//	optimus-sim -fault-transform 0.2 -fault-crash 0.02 -seed 3
//	optimus-sim -chaos -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	optimus "repro"
	"repro/internal/cliutil"
	"repro/internal/cost"
	"repro/internal/experiments"
)

// traceFunctions lists a trace's distinct function names.
func traceFunctions(t *optimus.Trace) []string { return t.Functions() }

func main() {
	var (
		policyName = flag.String("policy", "optimus", "container policy: optimus|openwhisk|pagurus|tetris")
		nodes      = flag.Int("nodes", 4, "worker nodes")
		slots      = flag.Int("containers", 4, "containers per node")
		fnCount    = flag.Int("functions", 26, "functions to deploy from the zoos")
		wl         = flag.String("workload", "poisson", "workload: poisson|azure")
		horizon    = flag.Duration("horizon", 24*time.Hour, "workload horizon")
		gpu        = flag.Bool("gpu", false, "GPU hardware profile")
		balancerOn = flag.Bool("balancer", true, "use the K-medoids model-sharing-aware placement")
		verify     = flag.Bool("verify", false, "execute and verify every transformation plan")
		seed       = flag.Int64("seed", 1, "random seed")
		nodeMB     = flag.Int("node-memory-mb", 0, "node memory bound (0 = slot-based)")
		ctrMB      = flag.Int("container-memory-mb", 0, "fixed container grant; 0 with node memory = fine-grained (§6)")
		online     = flag.Float64("online-profiling", 0, "EWMA rate for online profile refinement (§6)")
		profErr    = flag.Float64("profiling-error", 0, "relative error injected into offline profiling")
		watchdog   = flag.Float64("watchdog", 0, "cancel transforms at this multiple of their planned cost (≤1 disables)")
		brkN       = flag.Int("breaker-threshold", 0, "open a pair's circuit breaker after N consecutive transform failures (0 disables)")
		brkCool    = flag.Duration("breaker-cooldown", 0, "open-breaker wait before a half-open probe (default 5m)")
		maxRetries = flag.Int("max-retries", 0, "crash re-dispatch budget per request (0 = default 2, negative = none)")
		chaos      = flag.Bool("chaos", false, "run the chaos fault-rate sweep and exit")
		chaosRates = flag.String("chaos-rates", "", "comma-separated fault rates for -chaos (default 0,0.05,0.1,0.2,0.4)")
		recovery   = flag.Bool("recovery", false, "run the supervised-recovery sweep (breaker/watchdog on vs off) and exit")
		quick      = flag.Bool("quick", false, "shrink the -chaos/-recovery sweeps for fast runs")
		perFn      = flag.Int("per-function", 0, "print per-function stats for the N slowest functions")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		saveTrace  = flag.String("save-trace", "", "write the generated workload to this CSV file")
		loadTrace  = flag.String("load-trace", "", "replay a workload from this CSV file instead of generating one")
		azureTrace = flag.String("azure-trace", "", "replay a real Azure Functions invocations CSV (per-minute counts; deploys one function per trace row)")
	)
	ff := cliutil.RegisterFaultFlags(flag.CommandLine, false)
	rf := cliutil.RegisterResilienceFlags(flag.CommandLine)
	fo := cliutil.RegisterFanoutFlags(flag.CommandLine)
	rp := cliutil.RegisterReplayFlags(flag.CommandLine)
	flag.Parse()

	if err := ff.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := rf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := fo.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := rp.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *chaos || *recovery {
		var rates []float64
		if *chaosRates != "" {
			var err error
			rates, err = cliutil.ParseChaosRates(*chaosRates)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		o := experiments.Options{Seed: *seed, Quick: *quick}
		if *gpu {
			o.Profile = cost.GPU()
		}
		if *recovery {
			fmt.Println(experiments.Recovery(o, rates, *horizon).Render())
		} else {
			fmt.Println(experiments.Chaos(o, rates, *horizon).Render())
		}
		return
	}

	hw := optimus.CPU
	if *gpu {
		hw = optimus.GPU
	}
	sysCfg := optimus.SystemConfig{
		Nodes:             *nodes,
		ContainersPerNode: *slots,
		Hardware:          hw,
		Policy:            optimus.PolicyName(*policyName),
		UseBalancer:       *balancerOn,
		VerifyTransforms:  *verify,
		Seed:              *seed,
		NodeMemoryMB:      *nodeMB,
		ContainerMemoryMB: *ctrMB,
		OnlineProfiling:   *online,
		ProfilingError:    *profErr,
		Faults:            ff.Rates(),
		MaxRetries:        *maxRetries,
		WatchdogFactor:    *watchdog,
		BreakerThreshold:  *brkN,
		BreakerCooldown:   *brkCool,
		Health:            rf.HealthConfig(),
		Retry:             rf.BackoffConfig(),
		Hedge:             rf.HedgeConfig(),
		Fanout:            fo.Config(),
	}
	sys := optimus.NewSystem(sysCfg)

	img, bert := optimus.Imgclsmob(), optimus.BERTZoo()
	names := append(img.SortedByParams(), bert.SortedByParams()...)
	if *fnCount > len(names) {
		*fnCount = len(names)
	}
	// Deploy a spread of the zoos: every k-th model by size, so the set
	// mixes tiny and huge models like a real tenant population.
	step := len(names) / *fnCount
	if step == 0 {
		step = 1
	}
	deployed := 0
	for i := 0; i < len(names) && deployed < *fnCount; i += step {
		var m *optimus.Model
		if g, err := img.Get(names[i]); err == nil {
			m = g
		} else {
			m = bert.MustGet(names[i])
		}
		sys.MustRegister(names[i], m)
		deployed++
	}

	var trace *optimus.Trace
	if *azureTrace != "" {
		f, err := os.Open(*azureTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trace, err = optimus.ReadAzureInvocations(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Bind each trace function round-robin to zoo models; the trace
		// defines demand, the zoo defines structure.
		zooNames := sys.Functions()
		fresh := optimus.NewSystem(sysCfg)
		img2 := optimus.Imgclsmob()
		for i, fn := range traceFunctions(trace) {
			base := zooNames[i%len(zooNames)]
			m, err := img2.Get(base)
			if err != nil {
				m = optimus.BERTZoo().MustGet(base)
			}
			fresh.MustRegister(fn, m)
		}
		sys = fresh
		deployed = len(traceFunctions(trace))
	} else if *loadTrace != "" {
		f, err := os.Open(*loadTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		trace, err = optimus.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		switch *wl {
		case "poisson":
			trace = optimus.MixedPoissonTrace(sys.Functions(), *horizon, *seed)
		case "azure":
			trace = optimus.AzureTrace(sys.Functions(), *horizon, *seed)
		default:
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
			os.Exit(2)
		}
	}
	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := optimus.WriteTrace(f, trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}

	fmt.Printf("policy=%s nodes=%d containers/node=%d functions=%d workload=%s horizon=%v requests=%d\n",
		*policyName, *nodes, *slots, deployed, *wl, *horizon, trace.Len())
	stopProf, err := cliutil.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	start := time.Now()
	if rp.Streaming() {
		// Streaming replay keeps no per-request records: the summary is
		// mergeable aggregates plus sketched percentiles.
		var srep *optimus.StreamReport
		if w := *rp.Windows; w > 0 {
			srep, err = sys.RunWindowed(trace, w)
		} else {
			srep, err = sys.RunStream(trace)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulation failed:", err)
			os.Exit(1)
		}
		if ws := srep.WindowSummary(); ws != "" {
			fmt.Println(ws)
		}
		fmt.Println(srep.Summary())
		if fs := srep.FaultSummary(); fs != "" {
			fmt.Println(fs)
		}
		br := srep.Metrics.MeanBreakdown()
		fmt.Printf("mean breakdown: wait %v, init %v, load %v, compute %v\n", br.Wait, br.Init, br.Load, br.Compute)
		if *verify {
			fmt.Printf("transformations executed & verified: %d\n", srep.Verified)
		}
		if *perFn > 0 {
			fmt.Println("per-function stats unavailable in streaming mode (no records retained)")
		}
		fmt.Printf("simulated %v of cluster time in %v\n", *horizon, time.Since(start).Round(time.Millisecond))
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	rep, err := sys.Run(trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulation failed:", err)
		os.Exit(1)
	}
	fmt.Println(rep.Summary())
	if fs := rep.FaultSummary(); fs != "" {
		fmt.Println(fs)
	}
	if fs := rep.FanoutSummary(); fs != "" {
		fmt.Println(fs)
	}
	br := rep.MeanBreakdown()
	fmt.Printf("mean breakdown: wait %v, init %v, load %v, compute %v\n", br.Wait, br.Init, br.Load, br.Compute)
	if *verify {
		fmt.Printf("transformations executed & verified: %d\n", rep.Verified)
	}
	if *perFn > 0 {
		type row struct {
			name string
			mean time.Duration
			n    int
		}
		var rows []row
		for name, col := range rep.PerFunction() {
			rows = append(rows, row{name, col.MeanLatency(), col.Len()})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].mean > rows[j].mean })
		if *perFn > len(rows) {
			*perFn = len(rows)
		}
		fmt.Printf("slowest %d functions by mean service time:\n", *perFn)
		for _, r := range rows[:*perFn] {
			fmt.Printf("  %-28s %10v over %d requests\n", r.name, r.mean.Round(time.Millisecond), r.n)
		}
	}
	fmt.Printf("simulated %v of cluster time in %v\n", *horizon, time.Since(start).Round(time.Millisecond))
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
