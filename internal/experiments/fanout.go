package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

// BenchFanoutFile is the artifact `optimus-bench fanout` emits; `make check`
// (the fanoutguard gate) and CI validate its contents.
const BenchFanoutFile = "BENCH_fanout.json"

// Fanout experiment: a placement-pinned function absorbs a request burst by
// streaming one wave of replicas from its warm seeds into the cluster's free
// capacity. Three fixed-seed runs over the same trace:
//
//   - off: fan-out disabled, so the burst drains through the pinned node.
//   - fanout: zero faults; only the seeds donate, under the per-node
//     bandwidth cap, with each recipient's structure load pipelined ahead of
//     its weights stream.
//   - fanout-crash: the same under seed-crash injection. Orphaned children
//     move to another seed or fall back to a from-scratch load, so fan-out
//     still reaches target warmth and its goodput must not fall below off's.
//
// A second same-seed fanout-crash run proves byte-identical determinism.

// FanoutTargetWarm is N in time-to-N-warm: the replica count every fan-out
// run must reach. The acceptance gate requires N >= 16.
const FanoutTargetWarm = 16

// FanoutRun is one configuration's measurements over the burst trace.
type FanoutRun struct {
	Mode     string `json:"mode"`
	Arrivals int    `json:"arrivals"`
	Served   int    `json:"served"`
	Dropped  int    `json:"dropped"`
	// Goodput is served/arrivals.
	Goodput float64 `json:"goodput"`
	MeanMS  float64 `json:"mean_ms"`
	P99MS   float64 `json:"p99_ms"`
	// TimeToWarmMS is the trigger-to-N-warm latency of the run's fan-out.
	TimeToWarmMS float64             `json:"time_to_warm_ms"`
	Stats        metrics.FanoutStats `json:"stats"`
	Faults       metrics.FaultStats  `json:"faults"`
}

// FanoutResult is the persisted artifact: the three runs plus the
// determinism proof.
type FanoutResult struct {
	Seed       int64        `json:"seed"`
	TargetWarm int          `json:"target_warm"`
	Rates      faults.Rates `json:"crash_rates"`

	Off         FanoutRun `json:"off"`
	Fanout      FanoutRun `json:"fanout"`
	FanoutCrash FanoutRun `json:"fanout_crash"`

	// Deterministic records that a second same-seed fanout-crash run
	// produced byte-identical measurements.
	Deterministic bool `json:"deterministic"`
}

// fanoutTrace builds the burst workload: two concurrent warm-up requests
// (seeding both of the pinned node's slots), then a burst that saturates the
// pinned node and queues past the trigger threshold.
func fanoutTrace(burst int) *workload.Trace {
	const name = "resnet18-imagenet"
	reqs := []workload.Request{{Function: name, At: 0}, {Function: name, At: 0}}
	at := 5 * time.Minute
	for i := 0; i < burst; i++ {
		reqs = append(reqs, workload.Request{Function: name, At: at + time.Duration(i)*time.Millisecond})
	}
	return &workload.Trace{Duration: at + 2*time.Hour, Requests: reqs}
}

// fanoutCrashRates is the seed-crash injection mix of the crash run.
func fanoutCrashRates() faults.Rates {
	return faults.Rates{FanoutCrash: 0.3}
}

// fanoutOn resolves the experiment's fan-out config: fc with the package
// defaults, enabled, and room for at least FanoutTargetWarm replicas.
func fanoutOn(fc fanout.Config) fanout.Config {
	fc = fc.WithDefaults()
	fc.Enabled = true
	if fc.MaxRecipients < FanoutTargetWarm {
		fc.MaxRecipients = FanoutTargetWarm
	}
	return fc
}

// fanoutExpConfig builds one run's simulator config: the function pinned to
// node 0, nine more nodes holding the free capacity fan-out grows into.
func fanoutExpConfig(o Options, fc fanout.Config, rates faults.Rates) simulate.Config {
	return simulate.Config{
		Policy:            policy.Optimus{},
		Nodes:             10,
		ContainersPerNode: 2,
		Profile:           o.Profile,
		Seed:              o.Seed,
		Placement:         map[string][]int{"resnet18-imagenet": {0}},
		Fanout:            fc,
		Faults:            rates,
		// Give the per-pair breaker enough budget that seed crashes exercise
		// re-parenting instead of short-circuiting the whole fan-out to
		// fallback loads on the first failure.
		Breaker: supervisor.BreakerConfig{Threshold: 6, Cooldown: 10 * time.Minute},
	}
}

// fanoutOnce replays the trace under one config and folds the run.
func fanoutOnce(o Options, fc fanout.Config, fns []*simulate.Function, tr *workload.Trace, mode string, rates faults.Rates) FanoutRun {
	sim := simulate.New(fanoutExpConfig(o, fc, rates), fns)
	col, err := sim.Run(tr)
	if err != nil {
		panic(err)
	}
	run := FanoutRun{
		Mode:         mode,
		Arrivals:     col.Len() + col.Faults.Dropped,
		Served:       col.Len(),
		Dropped:      col.Faults.Dropped,
		MeanMS:       msF(col.MeanLatency()),
		P99MS:        msF(col.Percentile(99)),
		TimeToWarmMS: msF(col.Fanout.TimeToWarm),
		Stats:        col.Fanout,
		Faults:       col.Faults,
	}
	if run.Arrivals > 0 {
		run.Goodput = float64(run.Served) / float64(run.Arrivals)
	}
	return run
}

// Fanout runs the three-way burst comparison and double-runs the
// fanout-crash mode to prove determinism. A zero fc takes the experiment
// defaults (bandwidth 2, threshold 4, 16 recipients).
func Fanout(o Options, fc fanout.Config) FanoutResult {
	o = o.withDefaults()
	fns := []*simulate.Function{{Name: "resnet18-imagenet", Model: imgZoo.MustGet("resnet18-imagenet")}}
	tr := fanoutTrace(120)
	rates := fanoutCrashRates()
	on := fanoutOn(fc)

	res := FanoutResult{
		Seed:        o.Seed,
		TargetWarm:  FanoutTargetWarm,
		Rates:       rates,
		Off:         fanoutOnce(o, fanout.Config{}, fns, tr, "off", faults.Rates{}),
		Fanout:      fanoutOnce(o, on, fns, tr, "fanout", faults.Rates{}),
		FanoutCrash: fanoutOnce(o, on, fns, tr, "fanout-crash", rates),
	}
	rerun := fanoutOnce(o, on, fns, tr, "fanout-crash", rates)
	a, err := json.Marshal(res.FanoutCrash)
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
func (r FanoutResult) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fanout: creating %s: %w", dir, err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, BenchFanoutFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("fanout: writing %s: %w", path, err)
	}
	return nil
}

// Render prints the three-run digest.
func (r FanoutResult) Render() string {
	rows := make([][]string, 0, 3)
	for _, p := range []FanoutRun{r.Off, r.Fanout, r.FanoutCrash} {
		rows = append(rows, []string{
			p.Mode,
			fmt.Sprint(p.Arrivals),
			fmt.Sprint(p.Dropped),
			fmt.Sprintf("%.4f", p.Goodput),
			fmt.Sprintf("%.1f", p.MeanMS),
			fmt.Sprintf("%.1f", p.TimeToWarmMS),
			fmt.Sprint(p.Stats.Recipients),
			fmt.Sprint(p.Stats.DonorCrashes),
			fmt.Sprint(p.Stats.Reparents),
			fmt.Sprint(p.Stats.LoadFallbacks),
		})
	}
	det := "deterministic: second same-seed fanout-crash run was byte-identical"
	if !r.Deterministic {
		det = "NONDETERMINISTIC: same-seed reruns diverged"
	}
	return fmt.Sprintf("Extension: fan-out (time-to-%d-warm from one wave of seed donations vs fan-out off; crash run under seed-crash injection)\n", r.TargetWarm) +
		table([]string{"mode", "arrivals", "dropped", "goodput", "mean(ms)", "warm(ms)", "replicas", "crashes", "reparents", "fallbacks"}, rows) +
		"\n" + det
}
