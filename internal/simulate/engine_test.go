package simulate_test

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
	"repro/internal/zoo"
)

// recording turns on s's record keeping, for tests that read Records, and
// returns s.
func recording(s *simulate.Simulator) *simulate.Simulator {
	s.Collector().KeepRecords = true
	return s
}

func testFunctions(t testing.TB, names ...string) []*simulate.Function {
	t.Helper()
	img := zoo.Imgclsmob()
	out := make([]*simulate.Function, 0, len(names))
	for _, n := range names {
		out = append(out, &simulate.Function{Name: n, Model: img.MustGet(n)})
	}
	return out
}

func singleRequestTrace(fn string, at time.Duration) *workload.Trace {
	return &workload.Trace{
		Duration: at + time.Hour,
		Requests: []workload.Request{{Function: fn, At: at}},
	}
}

func TestColdThenWarm(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet")
	tr := &workload.Trace{
		Duration: time.Hour,
		Requests: []workload.Request{
			{Function: "resnet18-imagenet", At: 0},
			{Function: "resnet18-imagenet", At: 2 * time.Minute},
		},
	}
	sim := simulate.New(simulate.Config{Policy: policy.OpenWhisk{}}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	recs := col.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Kind != metrics.StartCold {
		t.Errorf("first request should be cold, got %v", recs[0].Kind)
	}
	if recs[1].Kind != metrics.StartWarm {
		t.Errorf("second request should be warm, got %v", recs[1].Kind)
	}
	if recs[1].Latency() >= recs[0].Latency() {
		t.Error("warm start should be faster than cold start")
	}
	prof := cost.CPU()
	wantCold := prof.SandboxInit + prof.ModelLoad(fns[0].Model).Total() + prof.Compute(fns[0].Model)
	if recs[0].Latency() != wantCold {
		t.Errorf("cold latency %v, want %v", recs[0].Latency(), wantCold)
	}
}

func TestKeepAliveExpiry(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet")
	tr := &workload.Trace{
		Duration: 2 * time.Hour,
		Requests: []workload.Request{
			{Function: "resnet18-imagenet", At: 0},
			{Function: "resnet18-imagenet", At: 30 * time.Minute}, // past 10-min keep-alive
		},
	}
	sim := simulate.New(simulate.Config{Policy: policy.OpenWhisk{}}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Records()[1].Kind != metrics.StartCold {
		t.Error("request after keep-alive expiry should be cold")
	}
}

func TestUnknownFunctionRejected(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet")
	sim := simulate.New(simulate.Config{Policy: policy.OpenWhisk{}}, fns)
	if _, err := sim.Run(singleRequestTrace("nope", 0)); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestOptimusTransformsIdleContainer(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet", "resnet34-imagenet")
	tr := &workload.Trace{
		Duration: time.Hour,
		Requests: []workload.Request{
			{Function: "resnet18-imagenet", At: 0},
			// 2 min later: resnet18's container is idle past the 60 s
			// threshold, so Optimus transforms it.
			{Function: "resnet34-imagenet", At: 2 * time.Minute},
		},
	}
	sim := simulate.New(simulate.Config{
		Policy:            policy.Optimus{},
		ContainersPerNode: 1, // full node: the idle container would be recycled
		VerifyTransforms:  true,
	}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	recs := col.Records()
	if recs[1].Kind != metrics.StartTransform {
		t.Fatalf("second request kind = %v, want transform", recs[1].Kind)
	}
	if sim.TransformsVerified != 1 {
		t.Errorf("TransformsVerified = %d, want 1", sim.TransformsVerified)
	}
	// The transformation must beat a cold start.
	if recs[1].Latency() >= recs[0].Latency() {
		t.Errorf("transform latency %v not better than cold %v", recs[1].Latency(), recs[0].Latency())
	}
	if recs[1].Init != 0 {
		t.Errorf("transform should skip sandbox init, got %v", recs[1].Init)
	}
}

func TestIdleThresholdRespected(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet", "resnet34-imagenet")
	// Second request arrives 10 s after the first completes — the resnet18
	// container is idle but NOT past the 60 s threshold, and the node has
	// room, so Optimus cold-starts instead of stealing a fresh container.
	tr := &workload.Trace{
		Duration: time.Hour,
		Requests: []workload.Request{
			{Function: "resnet18-imagenet", At: 0},
			{Function: "resnet34-imagenet", At: 11 * time.Second},
		},
	}
	sim := simulate.New(simulate.Config{Policy: policy.Optimus{}, ContainersPerNode: 1}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Records()[1].Kind; got != metrics.StartCold {
		t.Errorf("young idle container was repurposed: kind %v", got)
	}
}

func TestQueueingWhenSaturated(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet")
	tr := &workload.Trace{
		Duration: time.Hour,
		Requests: []workload.Request{
			{Function: "resnet18-imagenet", At: 0},
			{Function: "resnet18-imagenet", At: 10 * time.Millisecond},
		},
	}
	sim := simulate.New(simulate.Config{
		Policy:            policy.OpenWhisk{},
		Nodes:             1,
		ContainersPerNode: 1,
	}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	recs := col.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[1].Wait == 0 {
		t.Error("second request should have queued")
	}
	if recs[1].Kind != metrics.StartWarm {
		t.Errorf("dequeued request should reuse the warm container, got %v", recs[1].Kind)
	}
}

func TestPagurusSavesSandboxInit(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet", "resnet34-imagenet")
	tr := &workload.Trace{
		Duration: time.Hour,
		Requests: []workload.Request{
			{Function: "resnet18-imagenet", At: 0},
			{Function: "resnet34-imagenet", At: 2 * time.Minute},
		},
	}
	sim := simulate.New(simulate.Config{Policy: policy.Pagurus{}, ContainersPerNode: 1}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	rec := col.Records()[1]
	if rec.Kind != metrics.StartTransform {
		t.Fatalf("kind = %v", rec.Kind)
	}
	prof := cost.CPU()
	if rec.Init != 0 {
		t.Errorf("Pagurus should save sandbox init, got %v", rec.Init)
	}
	if rec.Load != prof.ModelLoad(fns[1].Model).Total() {
		t.Errorf("Pagurus must still load the full model: %v", rec.Load)
	}
}

func TestTetrisSharesIdenticalOps(t *testing.T) {
	img := zoo.Imgclsmob()
	// Two structurally identical models with *the same* weights scope would
	// be the same function; instead use resnet50 trained on two datasets —
	// identical structure, different weights → Tetris shares nothing — and
	// compare against a same-weights scenario crafted via the BERT zoo,
	// where downstream variants share the pre-trained base tensors.
	bert := zoo.BERTZoo()
	fns := []*simulate.Function{
		{Name: "sc", Model: bert.MustGet("bert-base-sc")},
		{Name: "qa", Model: bert.MustGet("bert-base-qa")},
		{Name: "r50a", Model: img.MustGet("resnet50-cifar10")},
		{Name: "r50b", Model: img.MustGet("resnet50-svhn")},
	}
	mk := func(a, b string) *workload.Trace {
		return &workload.Trace{
			Duration: time.Hour,
			Requests: []workload.Request{
				{Function: a, At: 0},
				{Function: b, At: 2 * time.Minute},
			},
		}
	}
	simBert := simulate.New(simulate.Config{Policy: policy.Tetris{}, ContainersPerNode: 2}, fns)
	colBert, err := recording(simBert).Run(mk("sc", "qa"))
	if err != nil {
		t.Fatal(err)
	}
	simR50 := simulate.New(simulate.Config{Policy: policy.Tetris{}, ContainersPerNode: 2}, fns)
	colR50, err := recording(simR50).Run(mk("r50a", "r50b"))
	if err != nil {
		t.Fatal(err)
	}
	bertLoad := colBert.Records()[1].Load
	r50Load := colR50.Records()[1].Load
	prof := cost.CPU()
	full := prof.ModelLoad(fns[1].Model).Total()
	if bertLoad >= full/2 {
		t.Errorf("Tetris should share most BERT base tensors: load %v vs full %v", bertLoad, full)
	}
	fullR50 := prof.ModelLoad(fns[3].Model).Total()
	if r50Load < fullR50*8/10 {
		t.Errorf("Tetris should share almost nothing across different weights: load %v vs full %v", r50Load, fullR50)
	}
}

// TestPolicyOrdering reproduces the Fig 13 shape on a small cluster:
// Optimus < Tetris, Pagurus < OpenWhisk mean service time, with Optimus
// reducing latency by a Fig-13-like margin.
func TestPolicyOrdering(t *testing.T) {
	names := []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet",
		"vgg16-imagenet", "vgg19-imagenet",
		"mobilenet-w1-imagenet", "mobilenet-w0.75-imagenet",
		"densenet121-imagenet", "densenet169-imagenet",
	}
	fns := testFunctions(t, names...)
	tr := workload.MixedPoisson(names, 12*time.Hour, 17)
	means := map[string]time.Duration{}
	for _, pol := range policy.All() {
		// Fewer container slots (6) than functions (9): the capacity-limited
		// regime the paper evaluates, where warm containers cannot be kept
		// for every model type (§4.1).
		sim := simulate.New(simulate.Config{
			Policy:            pol,
			Nodes:             2,
			ContainersPerNode: 3,
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if col.Len() != tr.Len() {
			t.Fatalf("%s served %d of %d requests", pol.Name(), col.Len(), tr.Len())
		}
		means[pol.Name()] = col.MeanLatency()
	}
	t.Logf("means: %v", means)
	if !(means["optimus"] < means["pagurus"] && means["optimus"] < means["openwhisk"] && means["optimus"] < means["tetris"]) {
		t.Errorf("Optimus should be fastest: %v", means)
	}
	if means["pagurus"] >= means["openwhisk"] {
		t.Errorf("Pagurus should beat OpenWhisk: %v", means)
	}
	reduction := 1 - float64(means["optimus"])/float64(means["openwhisk"])
	if reduction < 0.15 {
		t.Errorf("Optimus reduction vs OpenWhisk = %.1f%%, want Fig-13-like ≥ 15%%", 100*reduction)
	}
}

// TestColdStartRatios reproduces the Fig 14 shape: container transformation
// replaces most cold starts under Optimus.
func TestColdStartRatios(t *testing.T) {
	names := []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet",
		"vgg16-imagenet", "vgg19-imagenet", "densenet121-imagenet",
	}
	fns := testFunctions(t, names...)
	tr := workload.MixedPoisson(names, 12*time.Hour, 23)

	run := func(p simulate.Policy) map[metrics.StartKind]float64 {
		sim := simulate.New(simulate.Config{Policy: p, Nodes: 1, ContainersPerNode: 8}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col.KindFractions()
	}
	ow := run(policy.OpenWhisk{})
	op := run(policy.Optimus{})
	if op[metrics.StartCold] >= ow[metrics.StartCold] {
		t.Errorf("Optimus cold fraction %.2f not below OpenWhisk %.2f", op[metrics.StartCold], ow[metrics.StartCold])
	}
	if op[metrics.StartTransform] == 0 {
		t.Error("Optimus performed no transformations")
	}
	if ow[metrics.StartTransform] != 0 {
		t.Error("OpenWhisk should never transform")
	}
}

func TestDeterminism(t *testing.T) {
	names := []string{"resnet18-imagenet", "resnet50-imagenet", "vgg16-imagenet"}
	fns := testFunctions(t, names...)
	tr := workload.MixedPoisson(names, 6*time.Hour, 5)
	run := func() time.Duration {
		sim := simulate.New(simulate.Config{Policy: policy.Optimus{}}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col.MeanLatency()
	}
	if run() != run() {
		t.Error("simulation not deterministic")
	}
}

func TestPlacementRestrictsNodes(t *testing.T) {
	names := []string{"resnet18-imagenet", "vgg16-imagenet"}
	fns := testFunctions(t, names...)
	tr := workload.Poisson(names, 0.005, 4*time.Hour, 3)
	sim := simulate.New(simulate.Config{
		Policy: policy.OpenWhisk{},
		Nodes:  3,
		Placement: map[string][]int{
			"resnet18-imagenet": {0},
			"vgg16-imagenet":    {0},
		},
	}, fns)
	if _, err := sim.Run(tr); err != nil {
		t.Fatal(err)
	}
	nodes := sim.Nodes()
	if len(nodes[1].Containers) != 0 || len(nodes[2].Containers) != 0 {
		t.Error("placement leaked containers onto unassigned nodes")
	}
	if len(nodes[0].Containers) == 0 {
		t.Error("assigned node hosted nothing")
	}
}

func TestHashAndSpreadPlacement(t *testing.T) {
	fns := []string{"a", "b", "c", "d", "e"}
	hp := simulate.HashPlacement(fns, 3)
	if len(hp) != 5 {
		t.Fatal("hash placement missing functions")
	}
	for f, nodes := range hp {
		if len(nodes) != 1 || nodes[0] < 0 || nodes[0] >= 3 {
			t.Errorf("hash placement for %s = %v", f, nodes)
		}
	}
	sp := simulate.SpreadPlacement(fns, 2)
	counts := map[int]int{}
	for _, nodes := range sp {
		counts[nodes[0]]++
	}
	if counts[0] < 2 || counts[1] < 2 {
		t.Errorf("spread placement unbalanced: %v", counts)
	}
}

// TestTransformFaultInjection exercises the fault-recovery path: failed
// transformations cost the aborted attempt plus a fresh load, never a hang.
func TestTransformFaultInjection(t *testing.T) {
	names := []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg16-imagenet"}
	fns := testFunctions(t, names...)
	tr := workload.MixedPoisson(names, 12*time.Hour, 11)

	run := func(rate float64) (*metrics.Collector, *simulate.Simulator) {
		sim := simulate.New(simulate.Config{
			Policy:            policy.Optimus{},
			Nodes:             1,
			ContainersPerNode: 2,
			Faults:            faults.Rates{Transform: rate},
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col, sim
	}

	healthy, hs := run(0)
	faulty, fs := run(1.0)
	if hs.TransformsFailed != 0 {
		t.Errorf("healthy run failed %d transforms", hs.TransformsFailed)
	}
	if fs.TransformsFailed == 0 {
		t.Fatal("rate=1 injected no failures")
	}
	// Every request is still served.
	if faulty.Len() != healthy.Len() {
		t.Fatalf("fault run served %d of %d", faulty.Len(), healthy.Len())
	}
	// With all transforms failing, none survive as transform records.
	if faulty.KindFractions()[metrics.StartTransform] != 0 {
		t.Error("failed transforms still recorded as transforms")
	}
	// Failures make things slower, not faster.
	if faulty.MeanLatency() <= healthy.MeanLatency() {
		t.Errorf("fault run (%v) not slower than healthy (%v)", faulty.MeanLatency(), healthy.MeanLatency())
	}
	// Determinism under the same seed.
	again, as := run(1.0)
	if again.MeanLatency() != faulty.MeanLatency() || as.TransformsFailed != fs.TransformsFailed {
		t.Error("fault injection not deterministic")
	}
}

// TestLongHorizonStability runs a week of Azure-like traffic and checks
// global invariants: every request served exactly once, latencies bounded
// below by compute and the clock never regressing.
func TestLongHorizonStability(t *testing.T) {
	if testing.Short() {
		t.Skip("week-long simulation")
	}
	names := []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet",
		"vgg16-imagenet", "densenet121-imagenet", "mobilenet-w1-imagenet",
		"squeezenet-v1.1-imagenet", "shufflenetv2-w1-imagenet",
	}
	fns := testFunctions(t, names...)
	tr := workload.AzureLike(names, 7*24*time.Hour, 99)
	sim := simulate.New(simulate.Config{
		Policy:            policy.Optimus{},
		Nodes:             2,
		ContainersPerNode: 3,
	}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != tr.Len() {
		t.Fatalf("served %d of %d", col.Len(), tr.Len())
	}
	byName := map[string]*simulate.Function{}
	for _, f := range fns {
		byName[f.Name] = f
	}
	prof := cost.CPU()
	for _, r := range col.Records() {
		if r.End < r.Start || r.Start < r.Arrival {
			t.Fatalf("time went backwards in %+v", r)
		}
		if min := prof.Compute(byName[r.Function].Model); r.Latency() < min {
			t.Fatalf("latency %v below compute floor %v for %s", r.Latency(), min, r.Function)
		}
	}
	// Containers never exceed capacity at the end of the run.
	for _, n := range sim.Nodes() {
		if len(n.Containers) > 3 {
			t.Fatalf("node %d holds %d containers, cap 3", n.ID, len(n.Containers))
		}
	}
}

// TestOnlineProfilingInSimulator drives the §6 learning loop through a full
// simulation and checks the estimator converges toward the true profile.
func TestOnlineProfilingInSimulator(t *testing.T) {
	names := []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg16-imagenet"}
	fns := testFunctions(t, names...)
	tr := workload.MixedPoisson(names, 24*time.Hour, 13)
	sim := simulate.New(simulate.Config{
		Policy:            policy.Optimus{},
		Nodes:             1,
		ContainersPerNode: 2,
		EstimatorErr:      0.5,
		Seed:              3,
		OnlineProfiling:   0.2,
	}, fns)
	start := sim.Estimator().Miscalibration()
	if _, err := sim.Run(tr); err != nil {
		t.Fatal(err)
	}
	if sim.Estimator().Observations() == 0 {
		t.Fatal("no observations absorbed")
	}
	if got := sim.Estimator().Miscalibration(); got >= start {
		t.Errorf("miscalibration did not improve: %.3f → %.3f", start, got)
	}
	if sim.Env() == nil {
		t.Error("Env accessor broken")
	}
}

func TestNodeHelpers(t *testing.T) {
	n := &simulate.Node{ID: 0, Capacity: 2}
	if !n.HasRoom() {
		t.Error("empty node should have room")
	}
	fns := testFunctions(t, "resnet18-imagenet")
	c := &simulate.Container{ID: 1, Fn: fns[0], BusyUntil: time.Minute, LastDone: time.Minute}
	n.Containers = []*simulate.Container{c}
	if c.IdleFor(30*time.Second) != 0 {
		t.Error("busy container reported idle")
	}
	if c.IdleFor(90*time.Second) != 30*time.Second {
		t.Errorf("idle age wrong")
	}
	n.Remove(c)
	if len(n.Containers) != 0 {
		t.Error("Remove failed")
	}
	n.Remove(c) // no-op on absent container
}
