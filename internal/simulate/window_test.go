package simulate_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// overlapNames are the eight functions overlapRates places.
var overlapNames = []string{
	"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg16-imagenet",
	"vgg19-imagenet", "densenet121-imagenet", "densenet169-imagenet", "mobilenet-w1-imagenet",
}

// tinyFunctions builds functions over small chain models that stay within
// the brute-force planner's factorial limit (the zoo models are far too
// large for it). Names reuse overlapNames so overlapRates' placement applies.
func tinyFunctions() []*simulate.Function {
	out := make([]*simulate.Function, len(overlapNames))
	for i, name := range overlapNames {
		b := model.NewBuilder(name, "tiny", "t")
		// Vary depth and widths so different pairs transform differently.
		b.Conv("c1", 3, 8, 8+i, 1)
		b.ReLU("r1", 8+i)
		if i%2 == 0 {
			b.Conv("c2", 1, 8+i, 8, 1)
		}
		out[i] = &simulate.Function{Name: name, Model: b.Graph()}
	}
	return out
}

// overlapRates places eight functions on two would-be groups ({0,1} and
// {2,3}) plus one rare "bridge" function spanning {1,2}, which connects the
// groups into a single component: no whole-run partition exists, and
// windowed replay parallelizes exactly the windows where the bridge is
// inactive.
func overlapRates() (names []string, rates map[string]float64, placement map[string][]int) {
	names = append([]string(nil), overlapNames...)
	placement = map[string][]int{}
	rates = map[string]float64{}
	for i, n := range names {
		if i < 4 {
			placement[n] = []int{0, 1}
		} else {
			placement[n] = []int{2, 3}
		}
		rates[n] = 0.02
	}
	bridge := names[3]
	placement[bridge] = []int{1, 2}
	rates[bridge] = 0.0004
	return names, rates, placement
}

func overlapConfig() simulate.Config {
	_, _, placement := overlapRates()
	return simulate.Config{
		Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 3,
		Placement: placement,
		Seed:      17,
	}
}

// TestRunStreamMatchesRun is the streaming-engine identity: replaying the
// same trace through RunStream (constant-memory summary) and Run (record
// collector) must produce byte-identical summaries — digest state, exact
// sums, kind counts, fault tallies.
func TestRunStreamMatchesRun(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	cfg := overlapConfig()
	tr := workload.PoissonRates(rates, 6*time.Hour, 41)
	if len(tr.Requests) == 0 {
		t.Fatal("empty trace")
	}
	serialSim := simulate.New(cfg, fns)
	col, err := serialSim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	streamSim := simulate.New(cfg, fns)
	sum, err := streamSim.RunStream(tr.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if want := *metrics.SummaryOf(col); *sum != want {
		t.Fatalf("streamed summary != collector summary:\nstream count=%d mean=%v p99=%v\nrun    count=%d mean=%v p99=%v",
			sum.Count(), sum.MeanLatency(), sum.Percentile(99),
			want.Count(), want.MeanLatency(), want.Percentile(99))
	}
	if streamSim.Collector().Len() != 0 {
		t.Fatalf("streaming run retained %d records", streamSim.Collector().Len())
	}
	// The lazy generator source must agree with the materialized trace too
	// (the workload package proves byte-identity; this pins the whole path).
	genSim := simulate.New(cfg, fns)
	gsum, err := genSim.RunStream(workload.StreamPoissonRates(rates, 6*time.Hour, 41))
	if err != nil {
		t.Fatal(err)
	}
	if *gsum != *sum {
		t.Fatal("generator-fed stream != trace-fed stream")
	}
}

// TestWindowedMatchesSerial is the optimistic-parallelism equivalence proof:
// on a placement with one connected component (via the bridge function),
// windowed replay must still split most windows into independent partitions
// and produce a summary byte-identical to the serial engine's, under every
// planner algorithm. Run with -race: the partition workers share cluster
// state.
func TestWindowedMatchesSerial(t *testing.T) {
	names, rates, _ := overlapRates()
	zooFns := testFunctions(t, names...)
	dur := 6 * time.Hour
	for _, algo := range []planner.Algorithm{planner.AlgoGroup, planner.AlgoHungarian, planner.AlgoBrute} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			fns := zooFns
			if algo == planner.AlgoBrute {
				fns = tinyFunctions() // brute needs tiny cost matrices
			}
			cfg := overlapConfig()
			cfg.PlannerAlgo = algo
			serial, err := simulate.New(cfg, fns).RunStream(workload.StreamPoissonRates(rates, dur, 23))
			if err != nil {
				t.Fatal(err)
			}
			win, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, 23), dur, 32, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Windowed() {
				t.Fatalf("expected windowed run, got serial: %q", rep.SerialReason)
			}
			if rep.ParallelWindows == 0 {
				t.Fatalf("no window parallelized: %+v", rep)
			}
			if rep.ConflictWindows == 0 {
				t.Fatalf("bridge function never forced a conflict window: %+v", rep)
			}
			if rep.MaxGroups < 2 {
				t.Fatalf("MaxGroups = %d, want >= 2", rep.MaxGroups)
			}
			if *win != *serial {
				t.Fatalf("windowed summary != serial summary:\nwindowed count=%d mean=%v p99=%v hit=%v\nserial   count=%d mean=%v p99=%v hit=%v\nreport %+v",
					win.Count(), win.MeanLatency(), win.Percentile(99), win.HitRatio(),
					serial.Count(), serial.MeanLatency(), serial.Percentile(99), serial.HitRatio(), rep)
			}
		})
	}
}

// TestShardDeterminism pins windowed replay on a placement that splits into
// two disjoint node groups ({0,1} and {2,3}) with no bridge function: no
// window may conflict, and for a fixed seed, under every planner algorithm,
// the windowed summary (kind counts, latency digest, fault tallies) is
// byte-identical to the serial Run's. Run with -race: it also exercises the
// concurrent partition workers.
func TestShardDeterminism(t *testing.T) {
	placement := map[string][]int{}
	for i, n := range overlapNames {
		if i < 4 {
			placement[n] = []int{0, 1}
		} else {
			placement[n] = []int{2, 3}
		}
	}
	zooFns := testFunctions(t, overlapNames...)
	dur := 12 * time.Hour
	tr := workload.MixedPoisson(overlapNames, dur, 23)
	for _, algo := range []planner.Algorithm{planner.AlgoGroup, planner.AlgoHungarian, planner.AlgoBrute} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			fns := zooFns
			if algo == planner.AlgoBrute {
				fns = tinyFunctions() // brute needs tiny cost matrices
			}
			cfg := simulate.Config{
				Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 3,
				Placement:   placement,
				PlannerAlgo: algo,
				Seed:        11,
			}
			col, err := simulate.New(cfg, fns).Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			serial := metrics.SummaryOf(col)
			win, rep, err := simulate.RunWindowed(cfg, fns, tr.Cursor(), dur, 32, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Windowed() {
				t.Fatalf("expected windowed run, got serial: %q", rep.SerialReason)
			}
			if rep.ConflictWindows != 0 {
				t.Fatalf("disjoint groups produced %d conflict windows: %+v", rep.ConflictWindows, rep)
			}
			if rep.ParallelWindows == 0 || rep.MaxGroups != 2 {
				t.Fatalf("expected parallel windows over 2 groups: %+v", rep)
			}
			if *win != *serial {
				t.Fatalf("windowed summary != serial summary:\nwindowed count=%d mean=%v p99=%v\nserial   count=%d mean=%v p99=%v",
					win.Count(), win.MeanLatency(), win.Percentile(99),
					serial.Count(), serial.MeanLatency(), serial.Percentile(99))
			}
		})
	}
}

// TestWindowedCrossCheckOracle runs the lockstep serial oracle alongside the
// windowed engine; any divergence panics, so completing is the assertion.
func TestWindowedCrossCheckOracle(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	cfg := overlapConfig()
	cfg.CrossCheckWindows = true
	dur := 4 * time.Hour
	sum, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, 29), dur, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Windowed() || rep.ParallelWindows == 0 {
		t.Fatalf("oracle test did not exercise parallel windows: %+v", rep)
	}
	serial, err := simulate.New(cfg, fns).RunStream(workload.StreamPoissonRates(rates, dur, 29))
	if err != nil {
		t.Fatal(err)
	}
	if *sum != *serial {
		t.Fatal("cross-checked windowed summary != serial summary")
	}
}

// TestWindowedSerialFallbacks verifies every global coupling is detected and
// the fallback still equals a plain serial streaming run of the same config.
func TestWindowedSerialFallbacks(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	dur := 2 * time.Hour
	cases := []struct {
		name    string
		mut     func(*simulate.Config)
		windows int
		workers int
		reason  string
	}{
		{"faults", func(c *simulate.Config) { c.Faults = faults.Rates{Crash: 0.1, Outage: 0.01} }, 16, 4, "random stream"},
		{"online profiling", func(c *simulate.Config) { c.OnlineProfiling = 0.2 }, 16, 4, "online profiling"},
		{"fanout", func(c *simulate.Config) { c.Fanout = fanout.Config{Enabled: true} }, 16, 4, "fan-out"},
		{"health", func(c *simulate.Config) { c.Health = health.Config{Enabled: true} }, 16, 4, "health tracking"},
		{"one window", nil, 1, 4, "fewer than two windows"},
		{"one worker", nil, 16, 1, "workers=1"},
		{"single node", func(c *simulate.Config) { c.Nodes = 1; c.Placement = nil }, 16, 4, "single node"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := overlapConfig()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			sum, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, 7), dur, tc.windows, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Windowed() {
				t.Fatalf("expected serial fallback, got windowed run: %+v", rep)
			}
			if !strings.Contains(rep.SerialReason, tc.reason) {
				t.Errorf("reason %q does not mention %q", rep.SerialReason, tc.reason)
			}
			serial, err := simulate.New(cfg, fns).RunStream(workload.StreamPoissonRates(rates, dur, 7))
			if err != nil {
				t.Fatal(err)
			}
			if *sum != *serial {
				t.Fatal("fallback summary != serial streaming summary")
			}
			if sum.Count() == 0 {
				t.Error("fallback run produced no requests")
			}
		})
	}
}

// TestWindowedStress re-runs the windowed engine across seeds, window counts
// and worker counts on the conflicting placement — under -race this is the
// concurrency soak; every run must equal the serial engine exactly.
func TestWindowedStress(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	cfg := overlapConfig()
	dur := 3 * time.Hour
	for _, seed := range []int64{1, 2, 3} {
		serial, err := simulate.New(cfg, fns).RunStream(workload.StreamPoissonRates(rates, dur, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range []struct{ windows, workers int }{{8, 8}, {64, 2}, {200, 4}} {
			sum, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, seed),
				dur, shape.windows, shape.workers)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Windowed() {
				t.Fatalf("seed %d windows %d: serial fallback %q", seed, shape.windows, rep.SerialReason)
			}
			if *sum != *serial {
				t.Fatalf("seed %d windows=%d workers=%d: windowed != serial (count %d vs %d, mean %v vs %v)",
					seed, shape.windows, shape.workers, sum.Count(), serial.Count(), sum.MeanLatency(), serial.MeanLatency())
			}
		}
	}
}

// TestWindowedVerifyTransforms checks transform verification counters
// aggregate across partition workers exactly as in a serial run.
func TestWindowedVerifyTransforms(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	cfg := overlapConfig()
	cfg.VerifyTransforms = true
	dur := 4 * time.Hour
	serialSim := simulate.New(cfg, fns)
	if _, err := serialSim.RunStream(workload.StreamPoissonRates(rates, dur, 13)); err != nil {
		t.Fatal(err)
	}
	_, rep, err := simulate.RunWindowed(cfg, fns, workload.StreamPoissonRates(rates, dur, 13), dur, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransformsVerified != serialSim.TransformsVerified {
		t.Errorf("verified transforms: windowed %d, serial %d", rep.TransformsVerified, serialSim.TransformsVerified)
	}
	if serialSim.TransformsVerified == 0 {
		t.Skip("workload produced no transforms to verify")
	}
}
