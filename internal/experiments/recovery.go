package experiments

import (
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

// Recovery experiment: sweep the transform-failure intensity and compare an
// unsupervised cluster against one running the full supervision layer
// (watchdog + per-pair circuit breaker + the gray-failure resilience stack).
// At intensity r, transforms abort with probability r, hang with probability
// r/2, and donors turn flaky with probability r/4; the supervised run cancels
// hangs at 2× the planned cost, opens a pair's breaker after 3 consecutive
// failures, and routes around quarantined nodes with backoff and hedging.
// Both configurations track node health (the base one in observe-only mode)
// so MTTR is measured for each. Deterministic given the seed.

// BenchRecoveryFile is the artifact `optimus-bench recovery` emits;
// `make check` and CI validate its contents.
const BenchRecoveryFile = "BENCH_recovery.json"

// RecoveryPoint is one fault-intensity measurement for one configuration.
type RecoveryPoint struct {
	// Rate is the injected transform-abort probability (hangs at Rate/2,
	// flaky donors at Rate/4).
	Rate float64 `json:"rate"`
	// Supervised marks the watchdog+breaker+resilience configuration.
	Supervised bool          `json:"supervised"`
	Served     int           `json:"served"`
	Mean       time.Duration `json:"mean_ns"`
	P99        time.Duration `json:"p99_ns"`
	// Transform, Fallback, Timeout and Breaker are start-kind shares.
	Transform float64 `json:"transform"`
	Fallback  float64 `json:"fallback"`
	Timeout   float64 `json:"timeout"`
	Breaker   float64 `json:"breaker"`
	// PostRestoreHit is the warm-path share (warm + transform + hedged) of
	// requests arriving in the second half of the horizon — after the early
	// fault churn, how warm did the cluster recover?
	PostRestoreHit float64 `json:"post_restore_hit"`
	// MTTRMS and Episodes summarize the health tracker's unhealthy episodes.
	MTTRMS   float64 `json:"mttr_ms"`
	Episodes int     `json:"episodes"`
	// Faults tallies the injected failures and recoveries.
	Faults metrics.FaultStats `json:"faults"`
	// BreakerStats summarizes breaker transitions (supervised runs only).
	BreakerStats supervisor.BreakerStats `json:"breaker_stats"`
}

// RecoveryResult pairs the base and supervised degradation curves.
type RecoveryResult struct {
	Seed   int64           `json:"seed"`
	Points []RecoveryPoint `json:"points"`
}

// Recovery runs the supervision sweep under the Optimus policy (default
// rates 0, 0.1, 0.2, 0.4) over a shared Poisson workload.
func Recovery(o Options, rates []float64, horizon time.Duration) RecoveryResult {
	o = o.withDefaults()
	if len(rates) == 0 {
		rates = []float64{0, 0.1, 0.2, 0.4}
	}
	if horizon <= 0 {
		horizon = 24 * time.Hour
	}
	if o.Quick && horizon > 6*time.Hour {
		horizon = 6 * time.Hour
	}
	fns := DefaultFunctionSet(o.Quick)
	names := make([]string, len(fns))
	for i, f := range fns {
		names[i] = f.Name
	}
	tr := workload.MixedPoisson(names, horizon, o.Seed)

	res := RecoveryResult{Seed: o.Seed}
	for _, r := range rates {
		for _, supervised := range []bool{false, true} {
			cfg := simulate.Config{
				Policy:            policy.Optimus{},
				Nodes:             4,
				ContainersPerNode: 4,
				Profile:           o.Profile,
				Seed:              o.Seed,
				Faults: faults.Rates{
					Transform: r,
					Hang:      r / 2,
					Flaky:     r / 4,
				},
				// Health tracks both configurations so MTTR is comparable;
				// only the supervised one lets it steer routing.
				Health: health.Config{Enabled: true, ObserveOnly: !supervised},
			}
			if supervised {
				cfg.WatchdogFactor = 2
				cfg.Breaker = supervisor.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Minute}
				cfg.Retry = supervisor.BackoffConfig{Base: 50 * time.Millisecond}
				cfg.Hedge = supervisor.HedgeConfig{Percentile: 90, MinSamples: 2}
			}
			sim := simulate.New(cfg, fns)
			sim.Collector().KeepRecords = true // postRestoreHit reads them
			col, err := sim.Run(tr)
			if err != nil {
				panic(err)
			}
			fr := col.KindFractions()
			sum := sim.Health().Summarize()
			res.Points = append(res.Points, RecoveryPoint{
				Rate:           r,
				Supervised:     supervised,
				Served:         col.Len(),
				Mean:           col.MeanLatency(),
				P99:            col.Percentile(99),
				Transform:      fr[metrics.StartTransform],
				Fallback:       fr[metrics.StartFallback],
				Timeout:        fr[metrics.StartTimeout],
				Breaker:        fr[metrics.StartBreaker],
				PostRestoreHit: postRestoreHit(col.Records(), horizon),
				MTTRMS:         sum.MTTRMS,
				Episodes:       sum.Episodes,
				Faults:         col.Faults,
				BreakerStats:   sim.Breaker().Stats(),
			})
		}
	}
	return res
}

// postRestoreHit measures the warm-path share (warm + transform + hedged
// starts) of requests arriving in the second half of the horizon.
func postRestoreHit(recs []metrics.Record, horizon time.Duration) float64 {
	half := horizon / 2
	served, hits := 0, 0
	for _, r := range recs {
		if r.Arrival < half {
			continue
		}
		served++
		switch r.Kind {
		case metrics.StartWarm, metrics.StartTransform, metrics.StartHedge:
			hits++
		}
	}
	if served == 0 {
		return 0
	}
	return float64(hits) / float64(served)
}

// WriteFile persists the artifact into dir, creating it if needed.
func (r RecoveryResult) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("recovery: creating %s: %w", dir, err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, BenchRecoveryFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("recovery: writing %s: %w", path, err)
	}
	return nil
}

// Render prints the paired degradation curves.
func (r RecoveryResult) Render() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		mode := "base"
		if p.Supervised {
			mode = "supervised"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.Rate),
			mode,
			fmt.Sprint(p.Served),
			ms(p.Mean), ms(p.P99),
			pct(p.Transform), pct(p.Fallback), pct(p.Timeout), pct(p.Breaker),
			pct(p.PostRestoreHit),
			fmt.Sprintf("%.0f", p.MTTRMS),
			fmt.Sprint(p.Faults.Hangs),
			fmt.Sprint(p.Faults.WatchdogCancels),
			fmt.Sprint(p.BreakerStats.Opens),
		})
	}
	return "Extension: supervised recovery sweep (transform aborts at rate, hangs at rate/2, flaky donors at rate/4; supervised = watchdog 2x + breaker N=3 + health/backoff/hedging)\n" +
		table([]string{"rate", "mode", "served", "mean(ms)", "p99(ms)", "transform", "fallback", "timeout", "breaker", "post-hit", "mttr(ms)", "hangs", "wd-cancel", "opens"}, rows)
}
