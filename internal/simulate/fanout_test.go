package simulate_test

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

// fanoutBurst builds the canonical tree-trigger workload: one function pinned
// to node 0, pre-warmed by a single request, then hit by a burst that
// saturates the pinned node's two slots and queues deep enough to cross the
// trigger threshold — while the other nodes hold the free capacity the tree
// builds replicas into.
func fanoutBurst(t *testing.T, burst int) ([]*simulate.Function, *workload.Trace) {
	t.Helper()
	const name = "resnet18-imagenet"
	reqs := []workload.Request{{Function: name, At: 0}}
	at := 5 * time.Minute
	for i := 0; i < burst; i++ {
		reqs = append(reqs, workload.Request{Function: name, At: at + time.Duration(i)*time.Millisecond})
	}
	return testFunctions(t, name), &workload.Trace{Duration: at + 2*time.Hour, Requests: reqs}
}

func fanoutConfig(fc fanout.Config) simulate.Config {
	fc.Enabled = true
	return simulate.Config{
		Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 2, Seed: 7,
		Placement: map[string][]int{"resnet18-imagenet": {0}},
		Fanout:    fc,
	}
}

func runFanout(t *testing.T, cfg simulate.Config, fns []*simulate.Function, tr *workload.Trace) (*metrics.Collector, *simulate.Simulator) {
	t.Helper()
	sim := simulate.New(cfg, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return col, sim
}

func TestFanoutAbsorbsBurstBeyondPlacement(t *testing.T) {
	fns, tr := fanoutBurst(t, 40)
	cfg := fanoutConfig(fanout.Config{})
	col, _ := runFanout(t, cfg, fns, tr)

	fs := col.Fanout
	if fs.Trees != 1 {
		t.Fatalf("Trees = %d, want 1 (fanout stats: %+v)", fs.Trees, fs)
	}
	if fs.Recipients == 0 || fs.TimeToWarm == 0 {
		t.Fatalf("tree built nothing: %+v", fs)
	}
	if col.Len() != tr.Len() {
		t.Fatalf("served %d of %d", col.Len(), tr.Len())
	}
	// The function is pinned to node 0, so only stolen requests can reach the
	// replicas — every replica's first service shows up as a fanout start.
	if col.KindFractions()[metrics.StartFanout] == 0 {
		t.Fatal("no request was served by a fan-out-built replica")
	}

	// The same burst without a tree drains serially through node 0's two
	// slots; the tree's stolen requests must improve mean latency.
	plain := cfg
	plain.Fanout = fanout.Config{}
	pcol, _ := runFanout(t, plain, fns, tr)
	if pcol.Fanout.Trees != 0 {
		t.Fatalf("fanout disabled but trees triggered: %+v", pcol.Fanout)
	}
	if col.MeanLatency() >= pcol.MeanLatency() {
		t.Errorf("fan-out did not absorb the burst: mean %v with trees vs %v without",
			col.MeanLatency(), pcol.MeanLatency())
	}
}

func TestFanoutDonorCrashReparents(t *testing.T) {
	fns, tr := fanoutBurst(t, 40)
	cfg := fanoutConfig(fanout.Config{})
	cfg.Faults = faults.Rates{FanoutCrash: 0.5}
	col, _ := runFanout(t, cfg, fns, tr)

	fs := col.Fanout
	if fs.DonorCrashes == 0 {
		t.Fatalf("rate-0.5 donor crashes never fired: %+v", fs)
	}
	if fs.Reparents == 0 {
		t.Fatalf("donor crashes orphaned no one (or orphans were not re-parented): %+v", fs)
	}
	// Crashed donors may lose the request they were serving, but every burst
	// request is either served or dropped within the retry budget.
	if col.Len()+col.Faults.Dropped != tr.Len() {
		t.Fatalf("served %d + dropped %d != %d arrivals", col.Len(), col.Faults.Dropped, tr.Len())
	}
	if fs.Recipients == 0 {
		t.Fatalf("tree built nothing under donor crashes: %+v", fs)
	}
}

// TestFanoutEveryDonationCrashesDonor drives the parked-orphan path hard:
// with rate-1 FanoutCrash every donation kills its donor mid-stream, so
// orphans routinely find no healthy adopter and park. The completion event
// scheduled for the dead donation must die by generation instead of promoting
// the parked child into service — the regression symptom was a double-built
// replica whose second completion truncated an in-flight service.
func TestFanoutEveryDonationCrashesDonor(t *testing.T) {
	fns, tr := fanoutBurst(t, 40)
	run := func() (*metrics.Collector, metrics.FanoutStats) {
		cfg := fanoutConfig(fanout.Config{})
		cfg.Faults = faults.Rates{FanoutCrash: 1}
		col, _ := runFanout(t, cfg, fns, tr)
		return col, col.Fanout
	}
	col, fs := run()
	if fs.DonorCrashes == 0 {
		t.Fatalf("rate-1 donor crashes never fired: %+v", fs)
	}
	if fs.Recipients == 0 {
		t.Fatalf("tree built nothing under total donor loss: %+v", fs)
	}
	// Every donation crashing its donor means progress comes from fallback
	// loads once the healthy-member pool drains.
	if fs.LoadFallbacks == 0 {
		t.Fatalf("stranded orphans never diverted to fallbacks: %+v", fs)
	}
	if col.Len()+col.Faults.Dropped != tr.Len() {
		t.Fatalf("served %d + dropped %d != %d arrivals", col.Len(), col.Faults.Dropped, tr.Len())
	}
	col2, fs2 := run()
	if fs != fs2 {
		t.Fatalf("fanout stats diverged across runs: %+v vs %+v", fs, fs2)
	}
	r1, r2 := col.Records(), col2.Records()
	if len(r1) != len(r2) {
		t.Fatalf("record counts diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d diverged: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// fanoutBurstBeside is the small burst fixture (six burst requests, a
// six-recipient tree) plus a second function, other, placed on nodes and
// invoked at times: the second function's arrivals draw the faults that reach
// the tree's nodes.
func fanoutBurstBeside(t *testing.T, other string, nodes []int, at []time.Duration) (simulate.Config, []*simulate.Function, *workload.Trace) {
	t.Helper()
	fns, tr := fanoutBurst(t, 6)
	fns = append(fns, testFunctions(t, other)...)
	reqs := slices.Clone(tr.Requests)
	for _, a := range at {
		reqs = append(reqs, workload.Request{Function: other, At: a})
	}
	slices.SortStableFunc(reqs, func(a, b workload.Request) int { return cmp.Compare(a.At, b.At) })
	cfg := fanoutConfig(fanout.Config{Threshold: 2, MaxRecipients: 6})
	cfg.Placement[other] = nodes
	return cfg, fns, &workload.Trace{Duration: tr.Duration, Requests: reqs}
}

// TestFanoutOutageRebuildsLostRecipient takes down recipient nodes while the
// tree builds: resnet50 is placed on the three nodes the replicas go to, and
// its arrivals every 100 ms draw the outages. A recipient whose container
// dies with its node must be given up (Tree.RecipientLost) so the tree builds
// a replacement; otherwise it waits forever for a child that never completes.
func TestFanoutOutageRebuildsLostRecipient(t *testing.T) {
	var at []time.Duration
	for i := 1; i <= 10; i++ {
		at = append(at, 5*time.Minute+time.Duration(i)*100*time.Millisecond)
	}
	cfg, fns, tr := fanoutBurstBeside(t, "resnet50-imagenet", []int{1, 2, 3}, at)
	cfg.Seed = 4
	cfg.Faults = faults.Rates{Outage: 0.1}
	col, _ := runFanout(t, cfg, fns, tr)

	fs := col.Fanout
	if col.Faults.Outages == 0 {
		t.Fatalf("no outage fired: %+v", col.Faults)
	}
	if fs.Trees != 1 || fs.TreesCompleted != 1 {
		t.Fatalf("the tree did not reach its target after losing recipients: %+v", fs)
	}
	if fs.Recipients <= 6 {
		t.Fatalf("%d recipients built for a target of 6: no lost recipient was replaced (%+v)", fs.Recipients, fs)
	}
	// The replacements wait for the outage to end before they can warm.
	if fs.TimeToWarm < cfg.OutageDuration {
		t.Errorf("time to warm %v is shorter than the outage; no recipient was lost to it", fs.TimeToWarm)
	}
	if col.Len()+col.Faults.Dropped != tr.Len() {
		t.Fatalf("served %d + dropped %d != %d arrivals", col.Len(), col.Faults.Dropped, tr.Len())
	}
}

// TestFanoutDegradedDonationHitsWaveDeadline degrades the donor node's
// transform bandwidth: resnet50, warm on node 0, is transformed there into
// the burst's function, which opens a bandwidth window (rate 1). Every
// donation from node 0 then takes BandwidthFactor (3)× its weights time,
// past the watchdog's wave deadline (2×), so the watchdog cancels each child
// up front and the tree warms its target by from-scratch fallbacks.
func TestFanoutDegradedDonationHitsWaveDeadline(t *testing.T) {
	cfg, fns, tr := fanoutBurstBeside(t, "resnet50-imagenet", []int{0}, []time.Duration{0})
	tr.Requests = tr.Requests[1:] // no resnet18 warm-up: its first burst request transforms
	cfg.Faults = faults.Rates{Bandwidth: 1}
	cfg.WatchdogFactor = 2
	col, sim := runFanout(t, cfg, fns, tr)

	fs := col.Fanout
	if col.Faults.BandwidthWindows == 0 {
		t.Fatalf("no bandwidth window opened: %+v", col.Faults)
	}
	if fs.WaveCancels != 6 || fs.LoadFallbacks != 6 {
		t.Fatalf("want all 6 donations cancelled at the wave deadline and loaded from scratch: %+v", fs)
	}
	if wd := sim.Watchdog().Stats(); wd.WaveCancels != fs.WaveCancels {
		t.Fatalf("watchdog tallied %d wave cancels, the tree %d", wd.WaveCancels, fs.WaveCancels)
	}
	if fs.TreesCompleted != 1 || fs.Recipients != 6 {
		t.Fatalf("the tree did not reach its target through fallbacks: %+v", fs)
	}
	if col.Len() != tr.Len() {
		t.Fatalf("served %d of %d", col.Len(), tr.Len())
	}

	// Without a watchdog the same slow donations run to completion.
	cfg.WatchdogFactor = 0
	col, _ = runFanout(t, cfg, fns, tr)
	if fs := col.Fanout; fs.WaveCancels != 0 || fs.LoadFallbacks != 0 || fs.TreesCompleted != 1 {
		t.Fatalf("without a watchdog: %+v, want no cancels and a completed tree", fs)
	}
}

func TestFanoutRunsAreDeterministic(t *testing.T) {
	fns, tr := fanoutBurst(t, 40)
	run := func() ([]metrics.Record, metrics.FanoutStats, metrics.FaultStats) {
		cfg := fanoutConfig(fanout.Config{})
		cfg.Faults = faults.Rates{FanoutCrash: 0.3, Corrupt: 0.3, Crash: 0.05}
		col, _ := runFanout(t, cfg, fns, tr)
		return col.Records(), col.Fanout, col.Faults
	}
	r1, fo1, fa1 := run()
	r2, fo2, fa2 := run()
	if fo1 != fo2 {
		t.Fatalf("fanout stats diverged: %+v vs %+v", fo1, fo2)
	}
	if fa1 != fa2 {
		t.Fatalf("fault stats diverged: %+v vs %+v", fa1, fa2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d diverged: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestFanoutZeroConfigLeavesNoTrace pins compatibility: with the Fanout
// config at its zero value a run is byte-identical to one built before the
// feature existed (no stats, no extra randomness, no fanout-kind records).
func TestFanoutZeroConfigLeavesNoTrace(t *testing.T) {
	fns, tr := chaosTrace(t)
	cfg := simulate.Config{
		Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2, Seed: 5,
		Faults: faults.Rates{Transform: 0.2, Crash: 0.1, Hang: 0.1},
	}
	col, _ := runFanout(t, cfg, fns, tr)
	if col.Fanout.Any() {
		t.Fatalf("zero config tallied fanout stats: %+v", col.Fanout)
	}
	if col.KindFractions()[metrics.StartFanout] != 0 {
		t.Fatal("zero config produced fanout-kind records")
	}
}

// TestHedgedStartExposedToLoadFaults is the satellite regression for the
// load-fault injection gap: superviseHang assigns StartHedge before the
// exposure check runs, and hedged recoveries load the model from scratch, so
// they must be exposed to faults.Load like every other from-scratch start.
func TestHedgedStartExposedToLoadFaults(t *testing.T) {
	fns, tr := chaosTrace(t)
	sim := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 1, ContainersPerNode: 2, Seed: 5,
		Faults: faults.Rates{Hang: 0.4, Load: 1},
		Hedge:  supervisor.HedgeConfig{Percentile: 90, MinSamples: 2},
	}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	hedge := 0
	exposed := 0
	for _, r := range col.Records() {
		switch r.Kind {
		case metrics.StartHedge:
			hedge++
			exposed++
		case metrics.StartCold, metrics.StartFallback, metrics.StartTimeout, metrics.StartBreaker:
			exposed++
		}
	}
	if hedge == 0 {
		t.Fatal("setup failed to produce hedged starts")
	}
	// Rate-1 load faults retry every exposed from-scratch load exactly once:
	// if hedged starts bypassed injection, LoadRetries would fall short of
	// the exposed-start count.
	if col.Faults.LoadRetries < exposed {
		t.Fatalf("LoadRetries = %d, want >= %d exposed starts (%d hedged)",
			col.Faults.LoadRetries, exposed, hedge)
	}
}
