package simulate_test

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

// indexTestNames is a function mix wide enough to exercise warm reuse,
// repurposing, cold starts and queueing in the cross-check runs.
var indexTestNames = []string{
	"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet",
	"vgg16-imagenet", "vgg19-imagenet", "densenet121-imagenet",
}

// TestRouteCrossCheck replays fixed-seed traces with CrossCheckRouting on —
// the simulator panics on the first request where the indexed router and the
// scanning router disagree — across every policy, the three memory modes,
// restricted placements, and the full fault mix (crashes, outages, aborts,
// hangs with watchdog and breaker). This is the index≡scan equivalence proof
// on small traces.
func TestRouteCrossCheck(t *testing.T) {
	fns := testFunctions(t, indexTestNames...)
	tr := workload.MixedPoisson(indexTestNames, 8*time.Hour, 41)

	type variant struct {
		name string
		cfg  simulate.Config
	}
	var variants []variant
	for _, pol := range policy.All() {
		variants = append(variants, variant{
			name: "policy=" + pol.Name(),
			cfg:  simulate.Config{Policy: pol, Nodes: 3, ContainersPerNode: 3},
		})
	}
	variants = append(variants,
		variant{"memory=homogeneous", simulate.Config{
			Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 4,
			NodeMemoryMB: 2000, ContainerMemoryMB: 400,
		}},
		variant{"memory=finegrained", simulate.Config{
			Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 4,
			NodeMemoryMB: 1500,
		}},
		variant{"placement=hash", simulate.Config{
			Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 2,
			Placement: simulate.HashPlacement(indexTestNames, 4),
		}},
		variant{"placement=partial+invalid", simulate.Config{
			Policy: policy.Optimus{}, Nodes: 3, ContainersPerNode: 2,
			Placement: map[string][]int{
				"resnet18-imagenet": {0, 1},
				"vgg16-imagenet":    {99, -1}, // clamps to all nodes
			},
		}},
		variant{"faults=mixed", simulate.Config{
			Policy: policy.Optimus{}, Nodes: 3, ContainersPerNode: 3,
			Faults:         faults.Rates{Transform: 0.1, Load: 0.05, Crash: 0.03, Outage: 0.002, Hang: 0.05},
			WatchdogFactor: 3,
			Breaker:        supervisor.BreakerConfig{Threshold: 3, Cooldown: time.Minute},
		}},
		variant{"faults=outageheavy", simulate.Config{
			Policy: policy.Pagurus{}, Nodes: 2, ContainersPerNode: 2,
			Faults: faults.Rates{Crash: 0.05, Outage: 0.01},
		}},
		variant{"tight=queueing", simulate.Config{
			Policy: policy.OpenWhisk{}, Nodes: 1, ContainersPerNode: 2,
		}},
	)

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg
			cfg.Seed = 97
			cfg.CrossCheckRouting = true
			sim := simulate.New(cfg, fns)
			col, err := sim.Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if col.Len() == 0 {
				t.Fatal("no requests served")
			}
		})
	}
}

// TestIndexedMatchesScanEndToEnd proves the indexed replay is byte-identical
// to the legacy scanning replay: every record, every fault counter.
func TestIndexedMatchesScanEndToEnd(t *testing.T) {
	fns := testFunctions(t, indexTestNames...)
	tr := workload.MixedPoisson(indexTestNames, 12*time.Hour, 59)

	run := func(scan bool) *metrics.Collector {
		sim := simulate.New(simulate.Config{
			Policy: policy.Optimus{}, Nodes: 3, ContainersPerNode: 3,
			Seed:      7,
			RouteScan: scan,
			Faults:    faults.Rates{Transform: 0.05, Crash: 0.02},
		}, fns)
		col, err := recording(sim).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	scan, indexed := run(true), run(false)
	if scan.Faults != indexed.Faults {
		t.Errorf("fault stats diverge: scan %+v, indexed %+v", scan.Faults, indexed.Faults)
	}
	a, b := scan.Records(), indexed.Records()
	if len(a) != len(b) {
		t.Fatalf("record counts diverge: scan %d, indexed %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d diverges:\nscan    %+v\nindexed %+v", i, a[i], b[i])
		}
	}
}

// TestUnsortedTraceMatchesHeapOrder verifies the stream-merged Run handles an
// out-of-order trace like the old all-in-one event heap did: requests are
// stable-sorted by arrival time.
func TestUnsortedTraceMatchesHeapOrder(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet", "vgg16-imagenet")
	tr := &workload.Trace{
		Duration: time.Hour,
		Requests: []workload.Request{
			{Function: "vgg16-imagenet", At: 10 * time.Minute},
			{Function: "resnet18-imagenet", At: 0},
			{Function: "resnet18-imagenet", At: 10 * time.Minute},
			{Function: "resnet18-imagenet", At: 5 * time.Minute},
		},
	}
	sim := simulate.New(simulate.Config{Policy: policy.Optimus{}, CrossCheckRouting: true}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	recs := col.Records()
	if len(recs) != 4 {
		t.Fatalf("%d records", len(recs))
	}
	var prev time.Duration
	for i, r := range recs {
		if r.Arrival < prev {
			t.Errorf("record %d served out of arrival order: %v after %v", i, r.Arrival, prev)
		}
		prev = r.Arrival
	}
	// Same-timestamp arrivals keep trace order: the vgg request precedes the
	// resnet one at t=10m.
	if recs[2].Function != "vgg16-imagenet" || recs[3].Function != "resnet18-imagenet" {
		t.Errorf("tie order wrong: got %s then %s", recs[2].Function, recs[3].Function)
	}
}

// TestCrossCheckLongHorizon stresses keep-alive expiry, maturation and the
// eviction skip-bound across a long horizon with sparse traffic, where
// containers routinely age past the idle threshold and the keep-alive window
// between requests.
func TestCrossCheckLongHorizon(t *testing.T) {
	names := indexTestNames[:4]
	fns := testFunctions(t, names...)
	rates := map[string]float64{}
	for i, n := range names {
		// Sparse, heterogeneous demand: mean gaps of ~3–12 minutes straddle
		// both the 60 s idle threshold and the 10 min keep-alive.
		rates[n] = 1.0 / (180 + 180*float64(i))
	}
	tr := workload.PoissonRates(rates, 48*time.Hour, 83)
	for _, pol := range []simulate.Policy{policy.Optimus{}, policy.OpenWhisk{}} {
		sim := simulate.New(simulate.Config{
			Policy: pol, Nodes: 2, ContainersPerNode: 2,
			CrossCheckRouting: true,
		}, fns)
		if _, err := sim.Run(tr); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

// TestCrossCheckKeepAliveBoundary pins the stale-LastDone boundary: service
// long enough that a container's previous idle age plus its service time
// crosses keep-alive exactly when a same-timestamp arrival observes it.
func TestCrossCheckKeepAliveBoundary(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet", "vgg19-imagenet")
	var reqs []workload.Request
	// Bursts straddling multiples of the keep-alive and idle thresholds, with
	// duplicate timestamps to hit the arrival-before-completion ordering.
	for _, at := range []time.Duration{
		0, time.Second, 59 * time.Second, 60 * time.Second, 61 * time.Second,
		9*time.Minute + 59*time.Second, 10 * time.Minute, 10 * time.Minute,
		20 * time.Minute, 30*time.Minute + 30*time.Second,
	} {
		reqs = append(reqs,
			workload.Request{Function: "resnet18-imagenet", At: at},
			workload.Request{Function: "vgg19-imagenet", At: at},
		)
	}
	tr := &workload.Trace{Duration: time.Hour, Requests: reqs}
	for _, n := range []int{1, 2} {
		sim := simulate.New(simulate.Config{
			Policy: policy.Optimus{}, Nodes: n, ContainersPerNode: 2,
			CrossCheckRouting: true,
		}, fns)
		if _, err := sim.Run(tr); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzRouteCrossCheck drives the cross-checked simulator with fuzz-chosen
// workload shape and cluster geometry; any index/scan divergence panics. The
// top bit of nodes turns on health tracking with crash and outage faults, so
// routing also meets quarantined and down nodes. Every run must record each
// arrival once (served or dropped), never starting before it arrived.
func FuzzRouteCrossCheck(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint16(120))
	f.Add(int64(42), uint8(1), uint8(1), uint16(30))
	f.Add(int64(7), uint8(4), uint8(2), uint16(600))
	// A retry reused a container at the instant of its own pending crash,
	// and the crash then lost the request the container had been serving.
	f.Add(int64(-346), uint8(0x94), uint8(2), uint16(716))
	f.Fuzz(func(t *testing.T, seed int64, nodes, caps uint8, horizonMin uint16) {
		n := int(nodes%4) + 1
		c := int(caps%4) + 1
		horizon := time.Duration(horizonMin%(14*24*60)+10) * time.Minute
		fns := testFunctions(t, indexTestNames[:3]...)
		tr := workload.MixedPoisson(indexTestNames[:3], horizon, seed)
		if tr.Len() > 20000 {
			t.Skip("trace too large for fuzz iteration")
		}
		cfg := simulate.Config{
			Policy: policy.Optimus{}, Nodes: n, ContainersPerNode: c,
			Seed:              seed,
			CrossCheckRouting: true,
		}
		if nodes&0x80 != 0 {
			cfg.Health = healthConfig()
			cfg.Faults = faults.Rates{Crash: 0.3, Outage: 0.02}
		}
		col, err := recording(simulate.New(cfg, fns)).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range col.Records() {
			if r.Start < r.Arrival {
				t.Fatalf("record starts before it arrives: %+v", r)
			}
		}
		if col.Len()+col.Faults.Dropped != tr.Len() {
			t.Fatalf("served %d + dropped %d != %d arrivals", col.Len(), col.Faults.Dropped, tr.Len())
		}
	})
}

// TestRouteScanBaselineStillWorks pins the legacy configuration used as the
// benchmark baseline: RouteScan replay must keep producing full results.
func TestRouteScanBaselineStillWorks(t *testing.T) {
	fns := testFunctions(t, indexTestNames[:2]...)
	tr := workload.MixedPoisson(indexTestNames[:2], 2*time.Hour, 13)
	sim := simulate.New(simulate.Config{Policy: policy.Optimus{}, RouteScan: true}, fns)
	col, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != tr.Len() {
		t.Fatalf("served %d of %d", col.Len(), tr.Len())
	}
}
