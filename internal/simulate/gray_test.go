package simulate_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

func healthConfig() health.Config {
	return health.Config{
		Enabled:            true,
		SuspectStrikes:     2,
		QuarantineStrikes:  2,
		QuarantineDuration: 30 * time.Second,
		DrainTimeout:       15 * time.Second,
	}
}

func TestSlowWindowInflatesLatency(t *testing.T) {
	fns, tr := chaosTrace(t)
	base := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2, Seed: 5,
	}, fns)
	bcol, err := base.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	slow := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2, Seed: 5,
		Faults: faults.Rates{Slow: 0.05},
	}, fns)
	scol, err := slow.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if scol.Faults.SlowWindows == 0 {
		t.Fatal("rate-0.05 slow faults opened no windows")
	}
	if scol.Len() != tr.Len() {
		t.Fatalf("gray-slow run dropped requests: served %d of %d", scol.Len(), tr.Len())
	}
	if scol.MeanLatency() <= bcol.MeanLatency() {
		t.Errorf("slow windows did not inflate mean latency: %v vs baseline %v", scol.MeanLatency(), bcol.MeanLatency())
	}
}

func TestFlakyDonorFallsBackAndTripsBreaker(t *testing.T) {
	fns, tr := chaosTrace(t)
	sim := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 1, ContainersPerNode: 2, Seed: 5,
		Faults:  faults.Rates{Flaky: 0.2},
		Breaker: supervisor.BreakerConfig{Threshold: 3},
	}, fns)
	col, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Faults.FlakyWindows == 0 || col.Faults.FlakyFallbacks == 0 {
		t.Fatalf("flaky injection left no trace: %+v", col.Faults)
	}
	if col.KindFractions()[metrics.StartFallback] == 0 {
		t.Fatal("flaky donors should produce fallback starts")
	}
	if col.Faults.FlakyFallbacks < col.Faults.FlakyWindows {
		t.Errorf("windows (%d) should each cover at least one abort (%d)",
			col.Faults.FlakyWindows, col.Faults.FlakyFallbacks)
	}
}

func TestBandwidthDegradationInflatesTransforms(t *testing.T) {
	fns, tr := chaosTrace(t)
	run := func(rate float64) *metrics.Collector {
		sim := simulate.New(simulate.Config{
			Policy: policy.Optimus{}, Nodes: 1, ContainersPerNode: 2, Seed: 5,
			Faults: faults.Rates{Bandwidth: rate},
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	base, degraded := run(0), run(0.3)
	if degraded.Faults.BandwidthWindows == 0 {
		t.Fatal("bandwidth injection opened no windows")
	}
	if degraded.MeanLatency() <= base.MeanLatency() {
		t.Errorf("degraded transform bandwidth did not raise mean latency: %v vs %v",
			degraded.MeanLatency(), base.MeanLatency())
	}
}

func TestHealthQuarantineRoutesAround(t *testing.T) {
	// One hot function pinned to two nodes; crash faults make nodes sick.
	fns, tr := chaosTrace(t)
	sim := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 4, Seed: 9,
		Faults: faults.Rates{Crash: 0.3},
		Health: healthConfig(),
	}, fns)
	col, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	hs := sim.Health().Stats()
	if hs.Quarantines == 0 {
		t.Fatalf("sustained crashes quarantined nothing: %+v", hs)
	}
	if sim.Health().MTTR() <= 0 && len(sim.Health().Episodes()) > 0 {
		t.Fatal("completed episodes with zero MTTR")
	}
	// Health-aware routing must not lose requests: everything is either
	// served or accounted as dropped by the crash-retry budget.
	if col.Len()+col.Faults.Dropped != tr.Len() {
		t.Fatalf("served %d + dropped %d != %d arrivals", col.Len(), col.Faults.Dropped, tr.Len())
	}
}

func TestHealthRoutingCrossCheck(t *testing.T) {
	// The indexed and scanning routers must apply identical health filters;
	// CrossCheckRouting panics on the first divergence.
	fns, tr := chaosTrace(t)
	sim := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 4, Seed: 9,
		Faults:            faults.Rates{Crash: 0.2, Slow: 0.05},
		Health:            healthConfig(),
		CrossCheckRouting: true,
	}, fns)
	if _, err := sim.Run(tr); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffDelaysRetries(t *testing.T) {
	fns, tr := chaosTrace(t)
	run := func(retry supervisor.BackoffConfig) *metrics.Collector {
		sim := simulate.New(simulate.Config{
			Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2, Seed: 5,
			Faults: faults.Rates{Crash: 0.2},
			Retry:  retry,
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	immediate := run(supervisor.BackoffConfig{})
	backed := run(supervisor.BackoffConfig{Base: 50 * time.Millisecond})
	if immediate.Faults.BackoffRetries != 0 {
		t.Fatal("immediate retries must not count backoff delays")
	}
	if backed.Faults.BackoffRetries == 0 {
		t.Fatal("configured backoff never delayed a retry")
	}
	if backed.Faults.BackoffRetries > backed.Faults.Retries {
		t.Fatalf("backoff retries %d exceed total retries %d",
			backed.Faults.BackoffRetries, backed.Faults.Retries)
	}
}

func TestHedgedTransformBeatsUndetectedHang(t *testing.T) {
	fns, tr := chaosTrace(t)
	run := func(hedge supervisor.HedgeConfig) *metrics.Collector {
		// Two containers per node forces heavy repurposing, so the hedger
		// accumulates transform samples quickly and hangs hit armed hedges.
		sim := simulate.New(simulate.Config{
			Policy: policy.Optimus{}, Nodes: 1, ContainersPerNode: 2, Seed: 5,
			Faults: faults.Rates{Hang: 0.4},
			Hedge:  hedge,
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	plain := run(supervisor.HedgeConfig{})
	hedged := run(supervisor.HedgeConfig{Percentile: 90, MinSamples: 2})
	if plain.Faults.HedgedTransforms != 0 {
		t.Fatal("hedging disabled but hedges recorded")
	}
	if hedged.Faults.HedgedTransforms == 0 {
		t.Fatal("hang faults with hedging armed never hedged")
	}
	if hedged.Faults.HedgeWins == 0 {
		t.Fatal("hedged backups never beat a 10x undetected hang")
	}
	if hedged.KindFractions()[metrics.StartHedge] == 0 {
		t.Fatal("hedge wins should surface as hedge-kind records")
	}
	if hedged.MeanLatency() >= plain.MeanLatency() {
		t.Errorf("hedging did not improve mean latency under hangs: %v vs %v",
			hedged.MeanLatency(), plain.MeanLatency())
	}
}

func TestGrayRunsAreDeterministic(t *testing.T) {
	fns, tr := chaosTrace(t)
	run := func() ([]metrics.Record, metrics.FaultStats, health.Summary) {
		sim := simulate.New(simulate.Config{
			Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 4, Seed: 21,
			Faults: faults.Rates{Slow: 0.03, Flaky: 0.05, Bandwidth: 0.05, Crash: 0.1, Hang: 0.1},
			Health: healthConfig(),
			Retry:  supervisor.BackoffConfig{Base: 25 * time.Millisecond},
			Hedge:  supervisor.HedgeConfig{Percentile: 95, MinSamples: 5},
		}, fns)
		col, err := recording(sim).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col.Records(), col.Faults, sim.Health().Summarize()
	}
	r1, f1, h1 := run()
	r2, f2, h2 := run()
	if f1 != f2 {
		t.Fatalf("fault stats diverged: %+v vs %+v", f1, f2)
	}
	if h1 != h2 {
		t.Fatalf("health summaries diverged: %+v vs %+v", h1, h2)
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

// TestZeroGrayConfigMatchesSeedBehavior pins the compatibility contract: with
// every new knob at its zero value, a faulted run is byte-identical to the
// pre-gray engine (the new Fire calls consume no randomness at zero rate).
func TestZeroGrayConfigMatchesSeedBehavior(t *testing.T) {
	fns, tr := chaosTrace(t)
	run := func(cfg simulate.Config) []metrics.Record {
		sim := simulate.New(cfg, fns)
		col, err := recording(sim).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col.Records()
	}
	base := simulate.Config{
		Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2, Seed: 5,
		Faults: faults.Rates{Transform: 0.2, Crash: 0.1, Outage: 0.01, Hang: 0.1},
	}
	withZeros := base
	withZeros.SlowFactor = 4
	withZeros.BandwidthFactor = 3
	r1, r2 := run(base), run(withZeros)
	if len(r1) != len(r2) {
		t.Fatalf("record counts diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d diverged: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

// TestCheckpointRestoreReconcilesHealth is the restore-while-quarantined
// coverage: exporting a cluster whose node is quarantined/draining and
// importing it into a fresh server must carry the health state over — the
// sick node must not come back healthy — while a server without health
// tracking ignores the snapshot.
func TestCheckpointRestoreReconcilesHealth(t *testing.T) {
	names := []string{"resnet18-imagenet", "resnet34-imagenet"}
	fns := testFunctions(t, names...)
	cfg := simulate.Config{
		Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2,
		Health: healthConfig(),
	}
	o := simulate.NewOnline(cfg, fns)
	if _, err := o.Invoke(names[0], time.Second); err != nil {
		t.Fatal(err)
	}

	// Drive node 0 into quarantine through the exposed tracker, as a burst
	// of crash/outage signals would.
	now := 2 * time.Second
	o.ReadHealth(func(tr *health.Tracker) {
		for i := 0; i < 10 && tr.State(0, now) != health.Quarantined; i++ {
			tr.ObserveFailure(0, now)
			now += time.Second
		}
		if tr.State(0, now) != health.Quarantined {
			t.Fatal("setup: node 0 never quarantined")
		}
	})

	st := o.ExportState()
	if len(st.Health) != 2 {
		t.Fatalf("exported %d health snapshots, want 2", len(st.Health))
	}

	// Restore into a fresh server: the quarantined node must come back
	// quarantined, not resurrected as healthy, and must walk the rest of the
	// lifecycle (draining → recovered) from its restored instants.
	o2 := simulate.NewOnline(cfg, fns)
	o2.ImportState(st)
	o2.ReadHealth(func(tr *health.Tracker) {
		if got := tr.State(0, now); got != health.Quarantined {
			t.Fatalf("restored node 0 state %v, want quarantined", got)
		}
		if !tr.Avoid(0, now) {
			t.Fatal("restored quarantined node must stay unroutable")
		}
		if got := tr.State(1, now); got != health.Healthy {
			t.Fatalf("restored node 1 state %v, want healthy", got)
		}
		later := now + 30*time.Second + 15*time.Second // quarantine + drain timeout
		if got := tr.State(0, later); got != health.Recovered {
			t.Fatalf("restored node 0 after drain: %v, want recovered (not healthy)", got)
		}
	})

	// A server without health tracking ignores the snapshot instead of
	// failing the whole restore.
	plain := cfg
	plain.Health = health.Config{}
	o3 := simulate.NewOnline(plain, fns)
	o3.ImportState(st)
	o3.ReadHealth(func(tr *health.Tracker) {
		if tr != nil {
			t.Fatal("health disabled: tracker should be nil after restore")
		}
	})
	if _, err := o3.Invoke(names[0], now); err != nil {
		t.Fatal(err)
	}
}

// TestAllUnroutableWaitsOnlyWhenAllDown is the regression test for the
// all-unroutable park: with one candidate node quarantined (but up) and the
// other down from an outage, the router used to pick the empty down node,
// whose free capacity outscored the quarantined one. Replay then parked the
// request until the "first recovery" of the quarantined node — a time
// already past — and livelocked with its clock stuck; Online returned
// records starting before they arrived. Both routers now rank down nodes
// below every up node, so the recovery wait runs only when every candidate
// is down.
func TestAllUnroutableWaitsOnlyWhenAllDown(t *testing.T) {
	names := []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg16-imagenet"}
	fns := testFunctions(t, names...)
	tr := workload.MixedPoisson(names, 30*time.Minute, 11)
	cfg := simulate.Config{
		Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2, Seed: 7,
		Faults:            faults.Rates{Crash: 0.3, Outage: 0.02},
		Health:            healthConfig(),
		CrossCheckRouting: true,
	}
	checkRecords := func(t *testing.T, recs []metrics.Record) {
		t.Helper()
		for _, r := range recs {
			if r.Start < r.Arrival || r.Wait < 0 {
				t.Fatalf("record starts before it arrives: %+v", r)
			}
		}
	}

	t.Run("replay", func(t *testing.T) {
		type result struct {
			col *metrics.Collector
			err error
		}
		done := make(chan result, 1)
		sim := simulate.New(cfg, fns)
		go func() {
			col, err := recording(sim).Run(tr)
			done <- result{col, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatal(r.err)
			}
			checkRecords(t, r.col.Records())
			if r.col.Len()+r.col.Faults.Dropped != tr.Len() {
				t.Fatalf("served %d + dropped %d != %d arrivals", r.col.Len(), r.col.Faults.Dropped, tr.Len())
			}
		case <-time.After(20 * time.Second):
			t.Fatal("replay did not finish: a parked request livelocks the engine")
		}
	})
	for _, seed := range []int64{7, 9} {
		t.Run(fmt.Sprintf("online-seed-%d", seed), func(t *testing.T) {
			c := cfg
			c.Seed = seed
			o := simulate.NewOnline(c, fns)
			var recs []metrics.Record
			for _, r := range tr.Requests {
				if rec, err := o.Invoke(r.Function, r.At); err == nil {
					recs = append(recs, rec)
				}
			}
			checkRecords(t, recs)
		})
	}
}
