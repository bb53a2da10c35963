package simulate_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/workload"
	"repro/internal/zoo"
)

// digestFunctions returns the replay-digest functions: the BERT zoo followed
// by the first 50 Imgclsmob models, one function per model.
func digestFunctions() []*simulate.Function {
	var fns []*simulate.Function
	bert, img := zoo.BERTZoo(), zoo.Imgclsmob()
	for _, n := range bert.Names() {
		fns = append(fns, &simulate.Function{Name: n, Model: bert.MustGet(n)})
	}
	for _, n := range img.Names()[:50] {
		fns = append(fns, &simulate.Function{Name: n, Model: img.MustGet(n)})
	}
	return fns
}

// smallestFunctions returns the n functions with the fewest operations
// (ties by name), in that order: few enough ops for the Hungarian solver.
func smallestFunctions(fns []*simulate.Function, n int) []*simulate.Function {
	out := slices.Clone(fns)
	slices.SortStableFunc(out, func(a, b *simulate.Function) int {
		if c := a.Model.NumOps() - b.Model.NumOps(); c != 0 {
			return c
		}
		if a.Name < b.Name {
			return -1
		}
		return 1
	})
	return out[:n]
}

// replayDigest replays a 12 h AzureLike trace over fns on cfg.Nodes nodes ×
// 6 containers under Optimus, with faults, the circuit breaker, health
// tracking, backoff and hedging on, and folds every record (in collector
// order) and the fault tallies into one hash. It returns the digest and the
// plan cache's counters.
func replayDigest(t *testing.T, cfg simulate.Config, fns []*simulate.Function) (uint64, planner.Counters) {
	t.Helper()
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	cfg.ContainersPerNode = 6
	cfg.Policy = policy.Optimus{}
	cfg.Placement = simulate.HashPlacement(names, cfg.Nodes)
	cfg.Seed = 31
	cfg.Faults = faults.Rates{Crash: 0.01, Hang: 0.1, Slow: 0.01, Flaky: 0.03, Bandwidth: 0.02, Transform: 0.02, Load: 0.02}
	cfg.WatchdogFactor = 2
	cfg.Breaker = supervisor.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Minute}
	cfg.Health = health.Config{Enabled: true}
	cfg.Retry = supervisor.BackoffConfig{Base: 50 * time.Millisecond}
	cfg.Hedge = supervisor.HedgeConfig{Percentile: 90}
	sim := simulate.New(cfg, fns)
	col, err := recording(sim).Run(workload.AzureLike(names, 12*time.Hour, 97))
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	recs := col.Records()
	put(int64(len(recs)))
	for _, r := range recs {
		hashRecord(h, r)
	}
	fmt.Fprintf(h, "%+v", col.Faults)
	if col.Faults.HedgedTransforms == 0 || col.Faults.BreakerShortCircuits == 0 && col.Faults.TransformFallbacks == 0 {
		t.Errorf("replay exercised too little supervision: %+v", col.Faults)
	}
	return h.Sum64(), sim.Env().Plans.Counters()
}

// hashRecord folds every field of r into h.
func hashRecord(h hash.Hash64, r metrics.Record) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(r.Function)))
	h.Write([]byte(r.Function))
	for _, v := range []time.Duration{r.Arrival, r.Start, r.End, r.Wait, r.Init, r.Load, r.Compute} {
		put(int64(v))
	}
	put(int64(r.Kind))
	put(int64(r.Retries))
}

type lookups struct{ hits, misses, evictions int }

// TestReplayDigest pins every record of a small supervised Optimus replay
// under the planner's configurations: default, verified transforms, online
// profiling, bounded plan caches and the Hungarian solver. The digests were computed before donors were
// ranked by a step-free cost pass; that change (and any other speed work on
// the planning path) must reproduce them exactly, which pins virtual time
// byte for byte, including plan-cache eviction order under a bound.
func TestReplayDigest(t *testing.T) {
	fns := digestFunctions()
	cases := []struct {
		name string
		cfg  simulate.Config
		fns  []*simulate.Function
		want uint64
		// lookups pins the plan cache's hits, misses and evictions: donor
		// ranking must touch the cache exactly as before.
		lookups lookups
	}{
		{name: "default", cfg: simulate.Config{Nodes: 4}, want: 0x138dce62c6fd0b89, lookups: lookups{2650, 623, 0}},
		{name: "verify", cfg: simulate.Config{Nodes: 4, VerifyTransforms: true}, want: 0x138dce62c6fd0b89, lookups: lookups{2650, 623, 0}},
		{name: "online-profiling", cfg: simulate.Config{Nodes: 4, OnlineProfiling: 0.2, EstimatorErr: 0.5}, want: 0x937c90d0cfc71690, lookups: lookups{2679, 628, 0}},
		{name: "bounded-cache", cfg: simulate.Config{Nodes: 4, PlanCacheMax: 60}, want: 0x138dce62c6fd0b89, lookups: lookups{717, 2556, 2496}},
		// A bound below the donor count of one request evicts pairs while
		// the donors are being ranked.
		{name: "tiny-cache", cfg: simulate.Config{Nodes: 4, PlanCacheMax: 3}, want: 0x138dce62c6fd0b89, lookups: lookups{55, 3218, 3215}},
		// Under online profiling a re-planned pair sees a newer estimator, so
		// eviction order reaches virtual time.
		{name: "online-bounded", cfg: simulate.Config{Nodes: 4, OnlineProfiling: 0.2, EstimatorErr: 0.5, PlanCacheMax: 60}, want: 0x8e56357461808e56, lookups: lookups{719, 2554, 2494}},
		{name: "hungarian", cfg: simulate.Config{Nodes: 1, PlannerAlgo: planner.AlgoHungarian}, fns: smallestFunctions(fns, 12), want: 0x15c7e77b138dc9fb, lookups: lookups{551, 119, 0}},
		{name: "hungarian-online", cfg: simulate.Config{Nodes: 1, PlannerAlgo: planner.AlgoHungarian, OnlineProfiling: 0.2, EstimatorErr: 0.5}, fns: smallestFunctions(fns, 12), want: 0xb8c2c2b8fbc58874, lookups: lookups{556, 118, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := fns
			if tc.fns != nil {
				in = tc.fns
			}
			got, ct := replayDigest(t, tc.cfg, in)
			if l := (lookups{ct.Hits, ct.Misses, ct.Evictions}); l != tc.lookups {
				t.Errorf("plan cache hits, misses, evictions = %v, want %v", l, tc.lookups)
			}
			if got != tc.want {
				t.Errorf("replay digest = %#x, want %#x (counters %+v)", got, tc.want, ct)
			}
		})
	}
}

// TestReplayBuildsStepsOnlyWhereRead: a supervised Optimus replay charges
// transforms from the pairs' cached costs, so it builds no meta-op steps
// unless something reads them: transformation verification or the online
// profiling observer.
func TestReplayBuildsStepsOnlyWhereRead(t *testing.T) {
	fns := digestFunctions()
	for _, tc := range []struct {
		name        string
		cfg         simulate.Config
		wantPlanned bool
	}{
		{name: "default", cfg: simulate.Config{Nodes: 4}},
		{name: "verify", cfg: simulate.Config{Nodes: 4, VerifyTransforms: true}, wantPlanned: true},
		{name: "online-profiling", cfg: simulate.Config{Nodes: 4, OnlineProfiling: 0.2, EstimatorErr: 0.5}, wantPlanned: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ct := replayDigest(t, tc.cfg, fns)
			if ct.Costed == 0 {
				t.Fatalf("counters %+v: replay costed no pairs", ct)
			}
			if got := ct.Planned > 0; got != tc.wantPlanned {
				t.Errorf("counters %+v: built steps = %v, want %v", ct, got, tc.wantPlanned)
			}
		})
	}
}

// onlineTrace is the Online digest workload: 12 h of MixedPoisson over the
// six indexTestNames functions (1,122 requests).
func onlineTrace() *workload.Trace {
	return workload.MixedPoisson(indexTestNames, 12*time.Hour, 11)
}

// invokeTrace feeds every request of tr to a fresh Online server at its
// trace timestamp and returns each result in order.
func invokeTrace(t *testing.T, cfg simulate.Config, tr *workload.Trace) (*simulate.Online, []metrics.Record, []error) {
	t.Helper()
	o := simulate.NewOnline(cfg, testFunctions(t, indexTestNames...))
	recs := make([]metrics.Record, len(tr.Requests))
	errs := make([]error, len(tr.Requests))
	for i, r := range tr.Requests {
		recs[i], errs[i] = o.Invoke(r.Function, r.At)
	}
	return o, recs, errs
}

// TestOnlineDigest pins every Invoke result (record and error) and the final
// fault tallies of Online serving over the digest trace, under a plain
// Optimus cluster, the full supervised fault mix, and a crash-heavy Pagurus
// cluster that drops requests. The digests were computed before Online was
// rebuilt on the replay engine's start step; that rebuild, and any later
// change to the serving path, must reproduce them exactly.
func TestOnlineDigest(t *testing.T) {
	cases := []struct {
		name string
		cfg  simulate.Config
		want uint64
		// dropped reports whether the configuration must drop requests.
		dropped bool
	}{
		{name: "optimus", cfg: simulate.Config{Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2}, want: 0x52f9c659ad8710c},
		{name: "supervised-faults", cfg: simulate.Config{
			Policy: policy.Optimus{}, Nodes: 4, ContainersPerNode: 2, Seed: 11,
			Faults: faults.Rates{Transform: 0.05, Load: 0.05, Crash: 0.05, Outage: 0.01,
				Slow: 0.02, Flaky: 0.03, Bandwidth: 0.03, Hang: 0.1},
			WatchdogFactor: 2,
			Breaker:        supervisor.BreakerConfig{Threshold: 2, Cooldown: 10 * time.Minute},
			Retry:          supervisor.BackoffConfig{Base: 50 * time.Millisecond},
			Hedge:          supervisor.HedgeConfig{Percentile: 90},
			Health:         healthConfig(),
		}, want: 0xad3ca05f9d954763},
		{name: "pagurus-crash", cfg: simulate.Config{
			Policy: policy.Pagurus{}, Nodes: 3, ContainersPerNode: 1, Seed: 11,
			Faults: faults.Rates{Crash: 0.2},
		}, want: 0x2c15cf5715ae7815, dropped: true},
	}
	tr := onlineTrace()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, recs, errs := invokeTrace(t, tc.cfg, tr)
			h := fnv.New64a()
			for i, r := range recs {
				hashRecord(h, r)
				if errs[i] != nil {
					h.Write([]byte(errs[i].Error()))
				}
				h.Write([]byte{0})
			}
			var fs metrics.FaultStats
			o.ReadCollector(func(col *metrics.Collector) { fs = col.Faults })
			fmt.Fprintf(h, "%+v", fs)
			if got := fs.Dropped > 0; got != tc.dropped {
				t.Errorf("dropped %d requests, want drops = %v (%+v)", fs.Dropped, tc.dropped, fs)
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("online digest = %#x, want %#x (faults %+v)", got, tc.want, fs)
			}
		})
	}
}
