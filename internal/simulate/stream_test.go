package simulate_test

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"time"

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
// groups into a single component: no partition exists, so the replay stays
// on one goroutine.
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
	if want := col.Summary; *sum != want {
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

// twoGroupConfig places overlapNames on two disjoint node groups ({0,1} and
// {2,3}) with no bridge, so RunStream replays them on two group workers.
func twoGroupConfig() simulate.Config {
	placement := map[string][]int{}
	for i, n := range overlapNames {
		if i < 4 {
			placement[n] = []int{0, 1}
		} else {
			placement[n] = []int{2, 3}
		}
	}
	return simulate.Config{
		Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 3,
		Placement: placement,
		Seed:      11,
	}
}

// chunkFor shrinks RunStream's chunk so that streaming tr crosses at least
// three chunk boundaries. Where tr has arrivals at one instant it picks the
// longest such chunk with a boundary between two of them, and reports
// whether it found one.
func chunkFor(t *testing.T, tr *workload.Trace) (tied bool) {
	t.Helper()
	n := len(tr.Requests)
	if n < 8 {
		t.Fatalf("%d requests are too few to chunk", n)
	}
	for c := n / 4; c >= 1; c-- {
		for b := c; b < n; b += c {
			if tr.Requests[b].At == tr.Requests[b-1].At {
				simulate.SetStreamChunk(t, c)
				return true
			}
		}
	}
	simulate.SetStreamChunk(t, n/4)
	return false
}

// serialSummary replays tr on the serial loop and summarizes its records.
func serialSummary(t *testing.T, cfg simulate.Config, fns []*simulate.Function, tr *workload.Trace) (*metrics.Summary, *simulate.Simulator) {
	t.Helper()
	sim := simulate.New(cfg, fns)
	col, err := sim.RunSerial(tr)
	if err != nil {
		t.Fatal(err)
	}
	return &col.Summary, sim
}

// TestWindowedMatchesSerial replays a placement whose bridge function joins
// both node groups into one: RunStream keeps it on one goroutine and replays
// it chunk by chunk, one runChunk per chunk, holding back the events at
// or past each chunk's limit. The summary must equal the serial loop's over
// the whole trace under every planner algorithm.
func TestWindowedMatchesSerial(t *testing.T) {
	names, rates, _ := overlapRates()
	zooFns := testFunctions(t, names...)
	tr := workload.PoissonRates(rates, 6*time.Hour, 23)
	chunkFor(t, tr)
	for _, algo := range []planner.Algorithm{planner.AlgoGroup, planner.AlgoHungarian, planner.AlgoBrute} {
		t.Run(algo.String(), func(t *testing.T) {
			fns := zooFns
			if algo == planner.AlgoBrute {
				fns = tinyFunctions() // brute needs tiny cost matrices
			}
			cfg := overlapConfig()
			cfg.PlannerAlgo = algo
			want, _ := serialSummary(t, cfg, fns, tr)
			sim := simulate.New(cfg, fns)
			if g := sim.ReplayGroups(); g != 1 {
				t.Fatalf("the bridged placement streams as %d groups, want 1", g)
			}
			got, err := sim.RunStream(tr.Cursor())
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("chunked summary != serial summary:\nchunked count=%d mean=%v p99=%v kinds=%v\nserial  count=%d mean=%v p99=%v kinds=%v",
					got.Count(), got.MeanLatency(), got.Percentile(99), got.Kinds,
					want.Count(), want.MeanLatency(), want.Percentile(99), want.Kinds)
			}
		})
	}
}

// TestShardDeterminism pins RunStream on a placement that splits into two
// disjoint node groups ({0,1} and {2,3}): for a fixed seed, under every
// planner algorithm, the group-parallel stream's summary (kind counts,
// latency digest, fault tallies) across chunk boundaries is byte-identical
// to the serial loop's. Run with -race: it also exercises the concurrent
// group workers.
func TestShardDeterminism(t *testing.T) {
	zooFns := testFunctions(t, overlapNames...)
	tr := workload.MixedPoisson(overlapNames, 12*time.Hour, 23)
	chunkFor(t, tr)
	for _, algo := range []planner.Algorithm{planner.AlgoGroup, planner.AlgoHungarian, planner.AlgoBrute} {
		t.Run(algo.String(), func(t *testing.T) {
			fns := zooFns
			if algo == planner.AlgoBrute {
				fns = tinyFunctions() // brute needs tiny cost matrices
			}
			cfg := twoGroupConfig()
			cfg.PlannerAlgo = algo
			want, _ := serialSummary(t, cfg, fns, tr)
			sim := simulate.New(cfg, fns)
			if g := sim.ReplayGroups(); g != 2 {
				t.Fatalf("RunStream replays %d groups, want 2", g)
			}
			got, err := sim.RunStream(tr.Cursor())
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("group stream summary != serial summary:\nstream count=%d mean=%v p99=%v\nserial count=%d mean=%v p99=%v",
					got.Count(), got.MeanLatency(), got.Percentile(99),
					want.Count(), want.MeanLatency(), want.Percentile(99))
			}
		})
	}
}

// TestWindowedStress re-runs the group-parallel stream across seeds, chunk
// lengths (down to one arrival per chunk) and GOMAXPROCS settings on the
// two-group placement, fed by the lazy generator: under -race this is the
// concurrency soak, and every run must equal the serial loop exactly.
func TestWindowedStress(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	cfg := twoGroupConfig()
	dur := 3 * time.Hour
	for _, seed := range []int64{1, 2, 3} {
		want, _ := serialSummary(t, cfg, fns, workload.PoissonRates(rates, dur, seed))
		for _, shape := range []struct{ chunk, procs int }{{1, 2}, {7, 8}, {200, 1}, {200, 4}} {
			simulate.SetStreamChunk(t, shape.chunk)
			setProcs(t, shape.procs)
			got, err := simulate.New(cfg, fns).RunStream(workload.StreamPoissonRates(rates, dur, seed))
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("seed %d chunk=%d procs=%d: group stream != serial (count %d vs %d, mean %v vs %v)",
					seed, shape.chunk, shape.procs, got.Count(), want.Count(), got.MeanLatency(), want.MeanLatency())
			}
		}
	}
}

// TestWindowedVerifyTransforms checks that transform verification counters
// aggregate across the group workers and chunks exactly as in a serial run.
func TestWindowedVerifyTransforms(t *testing.T) {
	names, rates, _ := overlapRates()
	fns := testFunctions(t, names...)
	cfg := twoGroupConfig()
	cfg.VerifyTransforms = true
	tr := workload.PoissonRates(rates, 4*time.Hour, 13)
	chunkFor(t, tr)
	want, ser := serialSummary(t, cfg, fns, tr)
	sim := simulate.New(cfg, fns)
	if g := sim.ReplayGroups(); g != 2 {
		t.Fatalf("RunStream replays %d groups, want 2", g)
	}
	got, err := sim.RunStream(tr.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Error("group stream summary != serial summary")
	}
	if sim.TransformsVerified != ser.TransformsVerified || sim.TransformsFailed != ser.TransformsFailed {
		t.Errorf("verified transforms: stream %d/%d, serial %d/%d",
			sim.TransformsVerified, sim.TransformsFailed, ser.TransformsVerified, ser.TransformsFailed)
	}
	if ser.TransformsVerified == 0 {
		t.Fatal("workload produced no transforms to verify")
	}
}

// TestRunStreamErrors requires an out-of-order request and an unknown
// function found past the first chunk to fail the stream with the serial
// loop's errors, on the serial and the group path alike.
func TestRunStreamErrors(t *testing.T) {
	tr := workload.MixedPoisson(overlapNames, 2*time.Hour, 3)
	chunkFor(t, tr)
	fns := testFunctions(t, overlapNames...)
	late := len(tr.Requests) * 3 / 4
	for _, cfg := range []simulate.Config{overlapConfig(), twoGroupConfig()} {
		bad := shifted(tr, 0)
		bad.Requests[late].At = bad.Requests[late-1].At - time.Second
		if _, err := simulate.New(cfg, fns).RunStream(bad.Cursor()); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("out-of-order stream: err %v", err)
		}
		bad = shifted(tr, 0)
		bad.Requests[late].Function = "no-such-function"
		if _, err := simulate.New(cfg, fns).RunStream(bad.Cursor()); err == nil || !strings.Contains(err.Error(), "unknown function") {
			t.Errorf("unknown function: err %v", err)
		}
	}
}

// tiedTrace returns tr plus extra requests, each arriving at an instant a
// container frees up and hands itself to a queued request in a serial replay
// of the requests before it, for the queued request's function. The added
// request ties with that completion event: firing first, it takes the
// container, and the queued request waits on. Each added request arrives
// after the instants it was placed at, so it cannot move them.
func tiedTrace(t *testing.T, cfg simulate.Config, fns []*simulate.Function, tr *workload.Trace, extra int) *workload.Trace {
	t.Helper()
	out := shifted(tr, 0)
	after := time.Duration(-1)
	for range extra {
		col, err := simulate.New(cfg, fns).RunSerial(out)
		if err != nil {
			t.Fatal(err)
		}
		var next metrics.Record
		for _, r := range col.Records() {
			if r.Wait > 0 && r.Start > after && (next.Function == "" || r.Start < next.Start) {
				next = r
			}
		}
		if next.Function == "" {
			t.Fatal("no request queued: nothing to tie with")
		}
		after = next.Start
		out.Requests = append(out.Requests, workload.Request{At: next.Start, Function: next.Function})
		slices.SortStableFunc(out.Requests, func(a, b workload.Request) int { return cmp.Compare(a.At, b.At) })
	}
	return out
}

// TestRunStreamBoundaryTies streams traces whose added requests arrive at
// the instant a container frees up for a queued request, in chunks of one
// and three requests, so a chunk boundary falls at every such tie. The
// arrival must still fire before the completion, as in the serial loop, on
// the serial and the group path alike.
func TestRunStreamBoundaryTies(t *testing.T) {
	fns := testFunctions(t, overlapNames...)
	rates := map[string]float64{}
	for _, n := range overlapNames {
		rates[n] = 0.2
	}
	for _, cfg := range []simulate.Config{overlapConfig(), twoGroupConfig()} {
		cfg.ContainersPerNode = 1
		for _, seed := range []int64{1, 2} {
			tr := tiedTrace(t, cfg, fns, workload.PoissonRates(rates, 30*time.Minute, seed), 40)
			want, _ := serialSummary(t, cfg, fns, tr)
			for _, chunk := range []int{1, 3} {
				simulate.SetStreamChunk(t, chunk)
				got, err := simulate.New(cfg, fns).RunStream(tr.Cursor())
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Fatalf("%d groups, seed %d, chunk %d: stream != serial (count %d vs %d, mean %v vs %v)",
						simulate.New(cfg, fns).ReplayGroups(), seed, chunk, got.Count(), want.Count(), got.MeanLatency(), want.MeanLatency())
				}
			}
		}
	}
}
