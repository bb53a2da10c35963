package simulate_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
)

// supervisedPairScenario drives a 1-node/1-container Online cluster through
// alternating invocations of two functions, so every invocation after the
// first attempts a repurposing transform of the single resident container
// (resnet18↔resnet34, the same forced-transform setup the fault tests use).
func supervisedPairScenario(t *testing.T, cfg simulate.Config, n int) (*simulate.Online, []metrics.Record) {
	t.Helper()
	cfg.Policy = policy.Optimus{}
	cfg.Nodes = 1
	cfg.ContainersPerNode = 1
	fns := testFunctions(t, "resnet18-imagenet", "resnet34-imagenet")
	o := simulate.NewOnline(cfg, fns)
	var recs []metrics.Record
	for i := 0; i < n; i++ {
		name := fns[i%2].Name
		rec, err := o.Invoke(name, time.Duration(i)*2*time.Minute)
		if err != nil {
			t.Fatalf("invoke %d (%s): %v", i, name, err)
		}
		recs = append(recs, rec)
	}
	return o, recs
}

// TestBreakerOpensAfterExactlyN: with rate-1 transform faults and threshold
// 2, each (src→dst) pair fails exactly twice through the safeguard fallback,
// then opens; every later attempt for the pair short-circuits straight to a
// from-scratch load with the StartBreaker kind. Alternating two functions on
// one container exercises both pair directions independently.
func TestBreakerOpensAfterExactlyN(t *testing.T) {
	cfg := simulate.Config{
		Faults:  faults.Rates{Transform: 1},
		Breaker: supervisor.BreakerConfig{Threshold: 2, Cooldown: 24 * time.Hour},
	}
	o, recs := supervisedPairScenario(t, cfg, 7)

	wantKinds := []metrics.StartKind{
		metrics.StartCold,     // first arrival, empty cluster
		metrics.StartFallback, // r18→r34 failure 1
		metrics.StartFallback, // r34→r18 failure 1
		metrics.StartFallback, // r18→r34 failure 2 → opens
		metrics.StartFallback, // r34→r18 failure 2 → opens
		metrics.StartBreaker,  // r18→r34 short-circuited
		metrics.StartBreaker,  // r34→r18 short-circuited
	}
	for i, rec := range recs {
		if rec.Kind != wantKinds[i] {
			t.Fatalf("invocation %d kind = %v, want %v (all: %v)", i, rec.Kind, wantKinds[i], kinds(recs))
		}
	}
	b := o.Breaker()
	if st := b.State("resnet18-imagenet", "resnet34-imagenet"); st != supervisor.BreakerOpen {
		t.Fatalf("r18→r34 state = %v, want open", st)
	}
	bs := b.Stats()
	if bs.Opens != 2 || bs.ShortCircuits != 2 || bs.Probes != 0 {
		t.Fatalf("breaker stats = %+v, want 2 opens, 2 short-circuits, 0 probes", bs)
	}
	var fs metrics.FaultStats
	o.ReadCollector(func(c *metrics.Collector) { fs = c.Faults })
	if fs.TransformFallbacks != 4 || fs.BreakerShortCircuits != 2 {
		t.Fatalf("fault stats = %+v, want 4 fallbacks, 2 short-circuits", fs)
	}
}

// TestBreakerRunsByteIdentical: two runs with the same seed and flags
// produce identical records and fault tallies.
func TestBreakerRunsByteIdentical(t *testing.T) {
	run := func() ([]metrics.Record, metrics.FaultStats, supervisor.BreakerStats) {
		cfg := simulate.Config{
			Seed:    7,
			Faults:  faults.Rates{Transform: 1, Hang: 0.5},
			Breaker: supervisor.BreakerConfig{Threshold: 2, Cooldown: 24 * time.Hour},
		}
		o, recs := supervisedPairScenario(t, cfg, 9)
		var fs metrics.FaultStats
		o.ReadCollector(func(c *metrics.Collector) { fs = c.Faults })
		return recs, fs, o.Breaker().Stats()
	}
	r1, f1, b1 := run()
	r2, f2, b2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("records differ between identical runs:\n%v\n%v", r1, r2)
	}
	if f1 != f2 {
		t.Fatalf("fault stats differ: %+v vs %+v", f1, f2)
	}
	if b1 != b2 {
		t.Fatalf("breaker stats differ: %+v vs %+v", b1, b2)
	}
}

// TestBreakerHalfOpenProbeCloses: a pair seeded open recovers through the
// half-open probe when the next (healthy, zero fault rate) transform
// succeeds.
func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	cfg := simulate.Config{
		Policy: policy.Optimus{}, Nodes: 1, ContainersPerNode: 1,
		Breaker: supervisor.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
	}
	fns := testFunctions(t, "resnet18-imagenet", "resnet34-imagenet")
	o := simulate.NewOnline(cfg, fns)
	b := o.Breaker()
	b.RecordFailure("resnet18-imagenet", "resnet34-imagenet", 0)
	if st := b.State("resnet18-imagenet", "resnet34-imagenet"); st != supervisor.BreakerOpen {
		t.Fatalf("seeded state = %v, want open", st)
	}

	if _, err := o.Invoke("resnet18-imagenet", 0); err != nil {
		t.Fatal(err)
	}
	// Past the cooldown, the r18→r34 attempt goes through as the half-open
	// probe; with zero fault rates it succeeds and closes the breaker.
	rec, err := o.Invoke("resnet34-imagenet", 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != metrics.StartTransform {
		t.Fatalf("probe invocation kind = %v, want transform", rec.Kind)
	}
	if st := b.State("resnet18-imagenet", "resnet34-imagenet"); st != supervisor.BreakerClosed {
		t.Fatalf("post-probe state = %v, want closed", st)
	}
	bs := b.Stats()
	if bs.Probes != 1 || bs.Closes != 1 {
		t.Fatalf("breaker stats = %+v, want 1 probe, 1 close", bs)
	}
}

// TestBreakerKeysOptimusByModelPagurusByFunction: with function names that
// differ from their model names, an Optimus transform opens and closes the
// breaker under its (donor model, destination model) pair, the names its
// plan carries, while a Pagurus repurposing keys by the two functions.
func TestBreakerKeysOptimusByModelPagurusByFunction(t *testing.T) {
	const (
		fnA, fnB       = "fn-a", "fn-b"
		modelA, modelB = "resnet18-imagenet", "resnet34-imagenet"
	)
	newOnline := func(p simulate.Policy, rates faults.Rates) *simulate.Online {
		fns := testFunctions(t, modelA, modelB)
		fns[0].Name, fns[1].Name = fnA, fnB
		return simulate.NewOnline(simulate.Config{
			Policy: p, Nodes: 1, ContainersPerNode: 1, Faults: rates,
			Breaker: supervisor.BreakerConfig{Threshold: 1, Cooldown: time.Minute},
		}, fns)
	}
	// invokePair serves fnA cold, then fnB by repurposing fnA's container.
	invokePair := func(o *simulate.Online) metrics.Record {
		t.Helper()
		if _, err := o.Invoke(fnA, 0); err != nil {
			t.Fatal(err)
		}
		rec, err := o.Invoke(fnB, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for _, tc := range []struct {
		policy   simulate.Policy
		key, not [2]string
	}{
		{policy.Optimus{}, [2]string{modelA, modelB}, [2]string{fnA, fnB}},
		{policy.Pagurus{}, [2]string{fnA, fnB}, [2]string{modelA, modelB}},
	} {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			// Opens: a failing transform trips the breaker under tc.key.
			o := newOnline(tc.policy, faults.Rates{Transform: 1})
			if rec := invokePair(o); rec.Kind != metrics.StartFallback {
				t.Fatalf("failing transform kind = %v, want fallback", rec.Kind)
			}
			b := o.Breaker()
			if st := b.State(tc.key[0], tc.key[1]); st != supervisor.BreakerOpen {
				t.Errorf("state under %v = %v, want open", tc.key, st)
			}
			if st := b.State(tc.not[0], tc.not[1]); st != supervisor.BreakerClosed {
				t.Errorf("state under %v = %v, want untouched", tc.not, st)
			}

			// Closes: a breaker seeded open under tc.key admits the next
			// transform as its half-open probe, whose success closes it.
			o = newOnline(tc.policy, faults.Rates{})
			b = o.Breaker()
			b.RecordFailure(tc.key[0], tc.key[1], 0)
			if rec := invokePair(o); rec.Kind != metrics.StartTransform {
				t.Fatalf("probe kind = %v, want transform", rec.Kind)
			}
			if st := b.State(tc.key[0], tc.key[1]); st != supervisor.BreakerClosed {
				t.Errorf("post-probe state under %v = %v, want closed", tc.key, st)
			}
			if bs := b.Stats(); bs.Probes != 1 || bs.Closes != 1 {
				t.Errorf("breaker stats = %+v, want 1 probe, 1 close", bs)
			}
		})
	}
}

// TestHangWithAndWithoutWatchdog: an injected hang without a watchdog stalls
// the transform for HangFactor× its plan but still completes it; with a
// watchdog it is cancelled at Factor× the plan and charged the safeguard
// fallback under the StartTimeout kind. The arithmetic ties the two runs to
// the same planned cost.
func TestHangWithAndWithoutWatchdog(t *testing.T) {
	prof := cost.CPU()
	fns := testFunctions(t, "resnet18-imagenet", "resnet34-imagenet")
	planned := func(o *simulate.Online) time.Duration {
		env := o.Env()
		plan := env.Plans.GetOrPlan(env.Planner, fns[0].Model, fns[1].Model)
		return plan.TrueCost(prof, fns[0].Model)
	}

	base := simulate.Config{Faults: faults.Rates{Hang: 1}}
	oOff, recsOff := supervisedPairScenario(t, base, 2)
	hung := recsOff[1]
	if hung.Kind != metrics.StartTransform {
		t.Fatalf("undetected hang kind = %v, want transform", hung.Kind)
	}
	p := planned(oOff)
	if want := time.Duration(float64(p) * 10); hung.Load != want {
		t.Fatalf("undetected hang load = %v, want 10×plan = %v", hung.Load, want)
	}
	var fsOff metrics.FaultStats
	oOff.ReadCollector(func(c *metrics.Collector) { fsOff = c.Faults })
	if fsOff.Hangs != 1 || fsOff.WatchdogCancels != 0 {
		t.Fatalf("watchdog-off fault stats = %+v", fsOff)
	}

	wd := simulate.Config{Faults: faults.Rates{Hang: 1}, WatchdogFactor: 2}
	oOn, recsOn := supervisedPairScenario(t, wd, 2)
	cancelled := recsOn[1]
	if cancelled.Kind != metrics.StartTimeout {
		t.Fatalf("watchdog-cancelled hang kind = %v, want timeout", cancelled.Kind)
	}
	scratch := prof.ModelLoad(fns[1].Model).Total()
	if want := time.Duration(float64(p)*2) + scratch; cancelled.Load != want {
		t.Fatalf("cancelled hang load = %v, want 2×plan + scratch = %v", cancelled.Load, want)
	}
	var fsOn metrics.FaultStats
	oOn.ReadCollector(func(c *metrics.Collector) { fsOn = c.Faults })
	if fsOn.Hangs != 1 || fsOn.WatchdogCancels != 1 {
		t.Fatalf("watchdog-on fault stats = %+v", fsOn)
	}
	if st := oOn.Watchdog().Stats(); st.Cancelled != 1 {
		t.Fatalf("watchdog stats = %+v, want 1 cancel", st)
	}
}

// TestSupervisorZeroRatesUnchanged: enabling the watchdog and breaker with
// zero fault rates leaves a healthy run byte-identical to the unsupervised
// baseline — the supervision layer only acts on failures.
func TestSupervisorZeroRatesUnchanged(t *testing.T) {
	fns, tr := chaosTrace(t)
	run := func(cfg simulate.Config) []metrics.Record {
		cfg.Policy = policy.Optimus{}
		cfg.Nodes = 2
		cfg.ContainersPerNode = 2
		col, err := recording(simulate.New(cfg, fns)).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col.Records()
	}
	baseline := run(simulate.Config{})
	supervised := run(simulate.Config{
		WatchdogFactor: 2,
		Breaker:        supervisor.BreakerConfig{Threshold: 3},
	})
	if !reflect.DeepEqual(baseline, supervised) {
		t.Fatal("zero-rate supervised run diverged from the baseline")
	}
}

// TestWatchdogLeaseLifecycle: every served request issues a lease and
// completes it; crashes expire leases instead.
func TestWatchdogLeaseLifecycle(t *testing.T) {
	fns, tr := chaosTrace(t)
	sim := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2,
		WatchdogFactor: 2,
		Faults:         faults.Rates{Crash: 0.05},
		Seed:           3,
	}, fns)
	if _, err := sim.Run(tr); err != nil {
		t.Fatal(err)
	}
	st := sim.Watchdog().Stats()
	if st.LeasesIssued == 0 {
		t.Fatal("no leases issued")
	}
	if st.LeasesCompleted+st.LeasesExpired != st.LeasesIssued {
		t.Fatalf("lease accounting leaks: %+v (active %d)", st, sim.Watchdog().Active())
	}
	if sim.Collector().Faults.Crashes > 0 && st.LeasesExpired == 0 {
		t.Fatal("crashes occurred but no lease expired")
	}
}

func kinds(recs []metrics.Record) []metrics.StartKind {
	out := make([]metrics.StartKind, len(recs))
	for i, r := range recs {
		out[i] = r.Kind
	}
	return out
}
