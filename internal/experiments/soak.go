package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

// BenchSoakFile is the artifact `optimus-bench soak` emits; `make check` and
// CI validate its contents.
const BenchSoakFile = "BENCH_soak.json"

// Soak experiment: a fixed-seed chaos soak mixing hard faults (crashes,
// hangs) with gray ones (slow nodes, flaky donors, degraded bandwidth), run
// twice over the same trace —
//
//   - baseline: bounded crash retries only; the health tracker runs in
//     observe-only mode so fault windows and MTTR are measured without
//     steering any decision;
//   - resilient: the full gray-failure layer — health-aware routing
//     (suspect → quarantine → drain), seeded exponential retry backoff, and
//     hedged backup transforms — on top of the same supervision stack.
//
// Both modes share the watchdog and circuit breaker, so the measured delta
// isolates the resilience layer. Everything is virtual-time deterministic:
// the same seed reproduces every byte of the result.

// SoakRun is one configuration's measurements over the soak trace.
type SoakRun struct {
	Mode     string `json:"mode"`
	Arrivals int    `json:"arrivals"`
	Served   int    `json:"served"`
	Dropped  int    `json:"dropped"`
	// Availability is served/arrivals.
	Availability float64 `json:"availability"`
	// GoodputDuringFault is the served fraction of arrivals that landed
	// inside an unhealthy window (1 when no window opened).
	GoodputDuringFault float64 `json:"goodput_during_fault"`
	// HitRatio is the warm-path share of served requests: warm + transform +
	// hedged starts, i.e. everything that avoided a cold or degraded start.
	HitRatio float64 `json:"hit_ratio"`
	MeanMS   float64 `json:"mean_ms"`
	P99MS    float64 `json:"p99_ms"`
	// MTTRMS and Episodes summarize the health tracker's unhealthy episodes
	// (measured in observe-only mode for the baseline).
	MTTRMS   float64            `json:"mttr_ms"`
	Episodes int                `json:"episodes"`
	Faults   metrics.FaultStats `json:"faults"`
	Health   health.Stats       `json:"health"`
}

// SoakResult pairs the baseline and resilient soak runs.
type SoakResult struct {
	Seed      int64        `json:"seed"`
	HorizonMS float64      `json:"horizon_ms"`
	Rates     faults.Rates `json:"rates"`
	Baseline  SoakRun      `json:"baseline"`
	Resilient SoakRun      `json:"resilient"`
	// Deterministic records that a second same-seed resilient run produced
	// byte-identical measurements.
	Deterministic bool `json:"deterministic"`
}

// soakRates is the fixed fault mix of the chaos soak.
func soakRates() faults.Rates {
	// Gray, node-correlated faults (flaky donors, slow nodes, degraded
	// bandwidth) dominate the mix: those are the failures health-aware
	// routing can actually route around. Hard i.i.d. crashes stay low so
	// drop noise does not drown the signal.
	return faults.Rates{
		Crash:     0.03,
		Hang:      0.2,
		Slow:      0.03,
		Flaky:     0.15,
		Bandwidth: 0.05,
	}
}

// soakConfig builds one mode's simulator config over the shared cluster
// shape. Two containers per node keeps repurposing pressure high, so
// transforms — and therefore hangs, flaky donors, and hedges — stay on the
// hot path.
func soakConfig(o Options, resilient bool) simulate.Config {
	cfg := simulate.Config{
		Policy:            policy.Optimus{},
		Nodes:             4,
		ContainersPerNode: 2,
		Profile:           o.Profile,
		Seed:              o.Seed,
		Faults:            soakRates(),
		WatchdogFactor:    2,
		Breaker:           supervisor.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Minute},
		Health: health.Config{
			Enabled:     true,
			ObserveOnly: !resilient,
		},
	}
	if resilient {
		cfg.Retry = supervisor.BackoffConfig{Base: 50 * time.Millisecond}
		cfg.Hedge = supervisor.HedgeConfig{Percentile: 90, MinSamples: 2}
	}
	return cfg
}

// soakOnce replays the trace under one mode and folds the run into a SoakRun.
func soakOnce(o Options, fns []*simulate.Function, tr *workload.Trace, resilient bool) SoakRun {
	sim := simulate.New(soakConfig(o, resilient), fns)
	sim.Collector().KeepRecords = true // goodputDuringFault reads them
	col, err := sim.Run(tr)
	if err != nil {
		panic(err)
	}
	mode := "baseline"
	if resilient {
		mode = "resilient"
	}
	run := SoakRun{
		Mode:     mode,
		Arrivals: col.Len() + col.Faults.Dropped,
		Served:   col.Len(),
		Dropped:  col.Faults.Dropped,
		MeanMS:   msF(col.MeanLatency()),
		P99MS:    msF(col.Percentile(99)),
		Faults:   col.Faults,
	}
	if run.Arrivals > 0 {
		run.Availability = float64(run.Served) / float64(run.Arrivals)
	}
	fr := col.KindFractions()
	run.HitRatio = fr[metrics.StartWarm] + fr[metrics.StartTransform] + fr[metrics.StartHedge]
	ht := sim.Health()
	sum := ht.Summarize()
	run.MTTRMS = sum.MTTRMS
	run.Episodes = sum.Episodes
	run.Health = sum.Stats
	run.GoodputDuringFault = goodputDuringFault(col.Records(), tr, ht.Windows(tr.Duration))
	return run
}

// goodputDuringFault measures the served fraction of trace arrivals that fall
// inside a cluster-unhealthy window. Windows are disjoint and time-ordered,
// so both scans walk the window list once.
func goodputDuringFault(recs []metrics.Record, tr *workload.Trace, ws []health.Window) float64 {
	if len(ws) == 0 {
		return 1
	}
	inWindow := func(t time.Duration) bool {
		for _, w := range ws {
			if t >= w.Start && t < w.End {
				return true
			}
		}
		return false
	}
	arrivals := 0
	for _, r := range tr.Requests {
		if inWindow(r.At) {
			arrivals++
		}
	}
	if arrivals == 0 {
		return 1
	}
	served := 0
	for _, r := range recs {
		if inWindow(r.Arrival) {
			served++
		}
	}
	return float64(served) / float64(arrivals)
}

// Soak runs the chaos soak (default horizon 24h; Quick shrinks it to 2h for
// smoke runs) and double-runs the resilient mode to prove determinism.
func Soak(o Options, horizon time.Duration) SoakResult {
	o = o.withDefaults()
	if horizon <= 0 {
		horizon = 24 * time.Hour
	}
	if o.Quick && horizon > 2*time.Hour {
		horizon = 2 * time.Hour
	}
	fns := DefaultFunctionSet(o.Quick)
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	tr := workload.MixedPoisson(names, horizon, o.Seed)

	res := SoakResult{
		Seed:      o.Seed,
		HorizonMS: msF(horizon),
		Rates:     soakRates(),
		Baseline:  soakOnce(o, fns, tr, false),
		Resilient: soakOnce(o, fns, tr, true),
	}
	rerun := soakOnce(o, fns, tr, true)
	a, err := json.Marshal(res.Resilient)
	if err != nil {
		panic(err)
	}
	b, err := json.Marshal(rerun)
	if err != nil {
		panic(err)
	}
	res.Deterministic = bytes.Equal(a, b)
	return res
}

// WriteFile persists the artifact into dir, creating it if needed.
func (r SoakResult) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("soak: creating %s: %w", dir, err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, BenchSoakFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("soak: writing %s: %w", path, err)
	}
	return nil
}

// Render prints the paired soak digests.
func (r SoakResult) Render() string {
	rows := make([][]string, 0, 2)
	for _, p := range []SoakRun{r.Baseline, r.Resilient} {
		rows = append(rows, []string{
			p.Mode,
			fmt.Sprint(p.Arrivals),
			fmt.Sprint(p.Dropped),
			fmt.Sprintf("%.4f", p.Availability),
			fmt.Sprintf("%.4f", p.GoodputDuringFault),
			fmt.Sprintf("%.4f", p.HitRatio),
			fmt.Sprintf("%.1f", p.MeanMS),
			fmt.Sprintf("%.0f", p.MTTRMS),
			fmt.Sprint(p.Episodes),
			fmt.Sprint(p.Faults.HedgedTransforms),
			fmt.Sprint(p.Faults.BackoffRetries),
		})
	}
	det := "deterministic: second same-seed resilient run was byte-identical"
	if !r.Deterministic {
		det = "NONDETERMINISTIC: same-seed reruns diverged"
	}
	return "Extension: chaos soak (crash/hang + gray slow/flaky/bandwidth; resilient = health routing + backoff + hedging)\n" +
		table([]string{"mode", "arrivals", "dropped", "avail", "goodput@fault", "hit", "mean(ms)", "mttr(ms)", "episodes", "hedged", "backoff"}, rows) +
		"\n" + det
}
