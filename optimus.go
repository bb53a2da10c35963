package optimus

import (
	"fmt"
	"io"
	"time"

	"repro/internal/balancer"
	"repro/internal/cost"
	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metaop"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/supervisor"
	"repro/internal/workload"
	"repro/internal/zoo"
)

// Model is a computational graph: operations (conv, dense, attention, ...)
// connected by dataflow edges.
type Model = model.Graph

// Plan is a sequence of meta-operators transforming one model into another,
// with its cost estimates and the safeguard decision.
type Plan = metaop.Plan

// Registry is a named collection of model generators.
type Registry = zoo.Registry

// Trace is a time-ordered sequence of function invocations.
type Trace = workload.Trace

// FaultRates holds per-event fault-injection probabilities (transform
// aborts, failed loads, container crashes, node outages). The zero value
// disables injection.
type FaultRates = faults.Rates

// FaultStats tallies injected failures and their recoveries over a run.
type FaultStats = metrics.FaultStats

// HealthConfig parameterizes the per-node health state machine (gray-failure
// detection, quarantine, and drain; see DESIGN.md). The zero value disables
// tracking.
type HealthConfig = health.Config

// HealthSummary aggregates a run's health episodes, MTTR, and transition
// counters.
type HealthSummary = health.Summary

// BackoffConfig parameterizes the deterministic seeded crash-retry backoff.
type BackoffConfig = supervisor.BackoffConfig

// HedgeConfig parameterizes hedged backup transforms for hung primaries.
type HedgeConfig = supervisor.HedgeConfig

// FanoutConfig parameterizes fault-tolerant fan-out transform trees (burst
// absorption; see DESIGN.md). The zero value disables them.
type FanoutConfig = fanout.Config

// FanoutStats tallies a run's fan-out trees: replicas built, waves, donor
// crashes, re-parents, quarantines, and time-to-target-warm.
type FanoutStats = metrics.FanoutStats

// Hardware selects the latency profile.
type Hardware int

// Hardware profiles.
const (
	// CPU is the default CPU-server profile.
	CPU Hardware = iota
	// GPU models a GPU-enabled server: faster inference, but much slower
	// runtime initialization and model loading (§8.5).
	GPU
)

func (h Hardware) profile() *cost.Profile {
	if h == GPU {
		return cost.GPU()
	}
	return cost.CPU()
}

// Algorithm selects the transformation planning solver.
type Algorithm = planner.Algorithm

// Planning algorithms.
const (
	// AlgoGroup is the linear-time group-based planner (§4.4 Module 2⁺),
	// the production default.
	AlgoGroup = planner.AlgoGroup
	// AlgoHungarian is the optimal Munkres-assignment planner (Module 2),
	// orders of magnitude slower.
	AlgoHungarian = planner.AlgoHungarian
)

// Imgclsmob returns the 389-model CNN zoo used in the evaluation (§8.1).
func Imgclsmob() *Registry { return zoo.Imgclsmob() }

// BERTZoo returns the 10 BERT variants of §5.2/§8.1.
func BERTZoo() *Registry { return zoo.BERTZoo() }

// RNNZoo returns the recurrent text-model catalog (LSTM/GRU stacks), the
// RNN coverage §7 mentions alongside CNN and transformer models.
func RNNZoo() *Registry { return zoo.RNNZoo() }

// GPTZoo returns the GPT-2-style decoder catalog (DistilGPT-2, GPT-2,
// GPT-2-Medium), a second transformer family sharing BERT's operation
// vocabulary.
func GPTZoo() *Registry { return zoo.GPTZoo() }

// NASBenchModel builds the NAS-Bench-201 architecture with the given index
// (0 ≤ index < 15625) using 5 cells per stage and 10 classes.
func NASBenchModel(index int) (*Model, error) { return zoo.NASBenchModel(index, 5, 10) }

// ---------------------------------------------------------------- Transformer

// Transformer is the inter-function model transformation engine: the paper's
// core contribution as a standalone library. It profiles meta-operator costs
// offline (Module 1), plans transformations (Module 2/2⁺), and caches plans
// for online execution (Module 3).
type Transformer struct {
	prof  *cost.Profile
	pl    *planner.Planner
	cache *planner.Cache
}

// NewTransformer returns a transformer for the given hardware and planning
// algorithm.
func NewTransformer(hw Hardware, algo Algorithm) *Transformer {
	prof := hw.profile()
	return &Transformer{
		prof:  prof,
		pl:    planner.New(cost.Exact(prof), algo),
		cache: planner.NewCache(),
	}
}

// Plan returns the (cached) transformation plan from src to dst, including
// the safeguard decision.
func (t *Transformer) Plan(src, dst *Model) *Plan {
	return t.cache.GetOrPlan(t.pl, src, dst)
}

// Precompute warms the transformer's plan cache with every ordered pair of
// the given models, fanning the pairwise planning across a bounded worker
// pool (workers <= 0 defaults to GOMAXPROCS) — the offline planning phase of
// §4.4 Module 3 as a bulk operation. It returns once every pair is planned;
// plans are identical to those Plan would compute serially.
func (t *Transformer) Precompute(models []*Model, workers int) {
	planner.NewPrecomputer(t.pl, t.cache, workers).PrecomputeAll(models)
}

// Transform executes the plan for src→dst through the meta-operator engine,
// returning the rewritten model and its (simulated) execution time. The
// result is verified to be identical to dst; a verification failure is a
// bug and returns an error.
func (t *Transformer) Transform(src, dst *Model) (*Model, time.Duration, error) {
	plan := t.Plan(src, dst)
	got, took, err := metaop.Apply(t.prof, plan, src, dst)
	if err != nil {
		return nil, 0, err
	}
	if !got.Equal(dst) {
		return nil, 0, fmt.Errorf("optimus: transformation %s→%s did not reproduce the destination model", src.Name, dst.Name)
	}
	return got, took, nil
}

// LoadCost returns the latency of loading m from scratch in a warm container.
func (t *Transformer) LoadCost(m *Model) time.Duration {
	return t.prof.ModelLoad(m).Total()
}

// ColdStartCost returns the full cold-start latency for m: sandbox/runtime
// initialization plus model loading.
func (t *Transformer) ColdStartCost(m *Model) time.Duration {
	return t.prof.ColdStart(m)
}

// ComputeCost returns the inference latency of one request against m.
func (t *Transformer) ComputeCost(m *Model) time.Duration {
	return t.prof.Compute(m)
}

// ---------------------------------------------------------------- System

// PolicyName selects the container-management policy of a System.
type PolicyName string

// Available policies (§8.1 comparison systems).
const (
	PolicyOptimus   PolicyName = "optimus"
	PolicyOpenWhisk PolicyName = "openwhisk"
	PolicyPagurus   PolicyName = "pagurus"
	PolicyTetris    PolicyName = "tetris"
)

func (p PolicyName) impl() (simulate.Policy, error) {
	switch p {
	case PolicyOptimus, "":
		return policy.Optimus{}, nil
	case PolicyOpenWhisk:
		return policy.OpenWhisk{}, nil
	case PolicyPagurus:
		return policy.Pagurus{}, nil
	case PolicyTetris:
		return policy.Tetris{}, nil
	default:
		return nil, fmt.Errorf("optimus: unknown policy %q", p)
	}
}

// SystemConfig parameterizes a serverless ML inference cluster.
type SystemConfig struct {
	// Nodes is the worker count (default 4); ContainersPerNode bounds
	// concurrent containers per node (default 8).
	Nodes             int
	ContainersPerNode int
	// Hardware selects the latency profile (default CPU).
	Hardware Hardware
	// Policy selects the container scheduler (default PolicyOptimus).
	Policy PolicyName
	// KeepAlive (default 10 min) and IdleThreshold (default 60 s) control
	// container lifecycle (§4.2, §8.1).
	KeepAlive     time.Duration
	IdleThreshold time.Duration
	// UseBalancer enables the §5.1 model-sharing-aware K-medoids placement
	// (requires a demand history; Run derives it from the trace). When
	// false, functions are hash-placed.
	UseBalancer bool
	// VerifyTransforms executes every transformation plan through the
	// meta-operator engine and verifies the result (slower; for testing).
	VerifyTransforms bool
	// Seed drives every stochastic choice (default 1).
	Seed int64
	// ProfilingError perturbs the planner's cost estimates by the given
	// relative error (simulated stale/imprecise offline profiling, §6).
	ProfilingError float64
	// OnlineProfiling, when positive, refines the estimates from observed
	// meta-operator execution times at the given EWMA rate (§6 Future Work).
	OnlineProfiling float64
	// NodeMemoryMB bounds each node's container memory; zero keeps the
	// slot-based mode. ContainerMemoryMB > 0 selects homogeneous grants,
	// zero (with NodeMemoryMB set) fine-grained model-sized grants (§6
	// Limitation 1).
	NodeMemoryMB      int
	ContainerMemoryMB int
	// Faults configures deterministic multi-event fault injection; see
	// the "Failure model & degradation" section of DESIGN.md.
	Faults FaultRates
	// MaxRetries bounds crash/outage re-dispatches per request (0 means
	// the default of 2; negative disables retries).
	MaxRetries int
	// OutageDuration is how long a failed node stays down (default 30 s).
	OutageDuration time.Duration
	// WatchdogFactor enables the supervision watchdog: transformations
	// exceeding WatchdogFactor× their planned cost are cancelled and
	// recovered through the safeguard path. Values ≤ 1 disable it.
	WatchdogFactor float64
	// BreakerThreshold enables the per-(src→dst)-pair transform circuit
	// breaker: after this many consecutive failures the pair routes
	// straight to from-scratch loads until a cooled-down probe succeeds.
	// Zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open-breaker wait before a half-open probe
	// (default 5 min).
	BreakerCooldown time.Duration
	// Health configures the per-node health state machine (suspect →
	// quarantine → drain → recover); the zero value disables tracking.
	Health HealthConfig
	// Retry configures the seeded exponential crash-retry backoff; a zero
	// Base disables delays (retries stay immediate).
	Retry BackoffConfig
	// Hedge configures hedged backup transforms for hung primaries; a zero
	// Percentile disables hedging.
	Hedge HedgeConfig
	// Fanout configures fault-tolerant fan-out transform trees for burst
	// absorption; the zero value disables them.
	Fanout FanoutConfig
}

// System is a serverless ML inference cluster: functions bound to models,
// served under a container-management policy over a discrete-event cluster.
type System struct {
	cfg SystemConfig
	fns []*simulate.Function
}

// NewSystem returns an empty system.
func NewSystem(cfg SystemConfig) *System {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &System{cfg: cfg}
}

// Register deploys a function serving the given model. Duplicate names are
// rejected.
func (s *System) Register(name string, m *Model) error {
	if m == nil {
		return fmt.Errorf("optimus: nil model for function %q", name)
	}
	if err := m.Validate(); err != nil {
		return err
	}
	for _, f := range s.fns {
		if f.Name == name {
			return fmt.Errorf("optimus: function %q already registered", name)
		}
	}
	s.fns = append(s.fns, &simulate.Function{Name: name, Model: m})
	return nil
}

// MustRegister is Register but panics on error.
func (s *System) MustRegister(name string, m *Model) {
	if err := s.Register(name, m); err != nil {
		//optimus:allow panicpath — Must-style convenience wrapper: panicking on error is its documented contract
		panic(err)
	}
}

// Functions returns the registered function names in registration order.
func (s *System) Functions() []string {
	out := make([]string, len(s.fns))
	for i, f := range s.fns {
		out[i] = f.Name
	}
	return out
}

// simConfig resolves the system configuration (policy, placement, faults)
// into the simulator's Config for a run over the given trace.
func (s *System) simConfig(trace *Trace) (simulate.Config, error) {
	pol, err := s.cfg.Policy.impl()
	if err != nil {
		return simulate.Config{}, err
	}
	nodes := s.cfg.Nodes
	if nodes <= 0 {
		nodes = 4
	}
	names := s.Functions()
	var placement map[string][]int
	if s.cfg.UseBalancer {
		placement = s.balancerPlacement(trace, nodes)
	} else {
		placement = simulate.HashPlacement(names, nodes)
	}
	return simulate.Config{
		Nodes:             nodes,
		ContainersPerNode: s.cfg.ContainersPerNode,
		KeepAlive:         s.cfg.KeepAlive,
		IdleThreshold:     s.cfg.IdleThreshold,
		Profile:           s.cfg.Hardware.profile(),
		Policy:            pol,
		Placement:         placement,
		Seed:              s.cfg.Seed,
		VerifyTransforms:  s.cfg.VerifyTransforms,
		EstimatorErr:      s.cfg.ProfilingError,
		OnlineProfiling:   s.cfg.OnlineProfiling,
		NodeMemoryMB:      s.cfg.NodeMemoryMB,
		ContainerMemoryMB: s.cfg.ContainerMemoryMB,
		Faults:            s.cfg.Faults,
		MaxRetries:        s.cfg.MaxRetries,
		OutageDuration:    s.cfg.OutageDuration,
		WatchdogFactor:    s.cfg.WatchdogFactor,
		Breaker: supervisor.BreakerConfig{
			Threshold: s.cfg.BreakerThreshold,
			Cooldown:  s.cfg.BreakerCooldown,
		},
		Health: s.cfg.Health,
		Retry:  s.cfg.Retry,
		Hedge:  s.cfg.Hedge,
		Fanout: s.cfg.Fanout,
	}, nil
}

// Run replays the trace against the cluster and returns the report.
func (s *System) Run(trace *Trace) (*Report, error) {
	cfg, err := s.simConfig(trace)
	if err != nil {
		return nil, err
	}
	sim := simulate.New(cfg, s.fns)
	col, err := sim.Run(trace)
	if err != nil {
		return nil, err
	}
	return &Report{
		Collector: col,
		Policy:    string(s.cfg.Policy),
		Verified:  sim.TransformsVerified,
		Health:    sim.Health().Summarize(),
	}, nil
}

// RunStream replays the trace like Run but in constant memory: requests pull
// lazily through a cursor and every record folds into a mergeable summary
// instead of being retained. Aggregate results (counts, mean, kind fractions,
// fault tallies, exact breakdown sums) are identical to Run's; intermediate
// percentiles come from a bounded-error sketch (see DESIGN.md).
func (s *System) RunStream(trace *Trace) (*StreamReport, error) {
	cfg, err := s.simConfig(trace)
	if err != nil {
		return nil, err
	}
	sim := simulate.New(cfg, s.fns)
	sum, err := sim.RunStream(trace.Cursor())
	if err != nil {
		return nil, err
	}
	return &StreamReport{
		Metrics:  sum,
		Policy:   string(s.cfg.Policy),
		Verified: sim.TransformsVerified,
	}, nil
}

// RunWindowed replays the trace through time-windowed optimistic parallelism:
// each window speculates across the placement's per-window independent node
// partitions on up to GOMAXPROCS goroutines and windows whose active
// functions conflict replay serially — no globally disjoint placement is
// required. Results are exactly RunStream's; configurations that couple
// requests globally (or GOMAXPROCS=1) fall back to serial
// streaming replay, and StreamReport.Windowing says why.
func (s *System) RunWindowed(trace *Trace, windows int) (*StreamReport, error) {
	cfg, err := s.simConfig(trace)
	if err != nil {
		return nil, err
	}
	sum, rep, err := simulate.RunWindowed(cfg, s.fns, trace.Cursor(), trace.Duration, windows, 0)
	if err != nil {
		return nil, err
	}
	return &StreamReport{
		Metrics:   sum,
		Policy:    string(s.cfg.Policy),
		Verified:  rep.TransformsVerified,
		Windowing: rep,
	}, nil
}

func (s *System) balancerPlacement(trace *Trace, nodes int) map[string][]int {
	infos := make([]balancer.FunctionInfo, len(s.fns))
	for i, f := range s.fns {
		infos[i] = balancer.FunctionInfo{
			Name:   f.Name,
			Model:  f.Model,
			Demand: workload.Series(trace, f.Name, balancer.SlotDuration),
		}
	}
	pl := planner.New(cost.Exact(s.cfg.Hardware.profile()), planner.AlgoGroup)
	return balancer.Placement(pl, infos, nodes, balancer.Config{Seed: s.cfg.Seed})
}

// Report summarizes a system run.
type Report struct {
	*metrics.Collector
	// Policy is the container-management policy that produced the report.
	Policy string
	// Verified counts transformation plans executed through the
	// meta-operator engine (only with SystemConfig.VerifyTransforms).
	Verified int
	// Health aggregates the run's node-health episodes and MTTR (zero when
	// health tracking is disabled).
	Health HealthSummary
}

// StreamReport summarizes a streaming replay (RunStream or RunWindowed):
// aggregates only, no per-request records.
type StreamReport struct {
	// Metrics is the mergeable run summary: exact counts, means, kind and
	// fault tallies, plus sketched percentiles.
	Metrics *metrics.Summary
	// Policy is the container-management policy that produced the report.
	Policy string
	// Verified counts transformation plans executed through the
	// meta-operator engine (only with SystemConfig.VerifyTransforms).
	Verified int
	// Windowing describes how RunWindowed parallelized the replay (zero for
	// RunStream).
	Windowing simulate.WindowReport
}

// Summary renders a human-readable digest of the streaming run.
func (r *StreamReport) Summary() string {
	fr := r.Metrics.KindFractions()
	return fmt.Sprintf(
		"%d requests: mean %v, p50 %v, p99 %v | warm %.1f%%, transform %.1f%%, cold %.1f%%",
		r.Metrics.Count(), r.Metrics.MeanLatency(), r.Metrics.Percentile(50), r.Metrics.Percentile(99),
		100*fr[metrics.StartWarm], 100*fr[metrics.StartTransform], 100*fr[metrics.StartCold])
}

// FaultSummary renders the run's failure/recovery tallies, or "" when no
// fault was injected.
func (r *StreamReport) FaultSummary() string {
	f := r.Metrics.Faults
	if !f.Any() {
		return ""
	}
	return fmt.Sprintf(
		"faults: %d transform fallbacks, %d load retries, %d crashes, %d outages | %d retries, %d dropped",
		f.TransformFallbacks, f.LoadRetries, f.Crashes, f.Outages, f.Retries, f.Dropped)
}

// WindowSummary renders how the windowed replay parallelized, or "" for a
// plain streaming run.
func (r *StreamReport) WindowSummary() string {
	w := r.Windowing
	if w.Workers == 0 {
		return ""
	}
	if !w.Windowed() {
		return fmt.Sprintf("windows: serial fallback (%s)", w.SerialReason)
	}
	return fmt.Sprintf("windows: %d replayed, %d parallel (max %d partitions), %d conflict-serial, %d workers",
		w.Windows, w.ParallelWindows, w.MaxGroups, w.ConflictWindows, w.Workers)
}

// FanoutSummary renders the run's fan-out tree tallies, or "" when no tree
// triggered.
func (r *Report) FanoutSummary() string {
	f := r.Fanout
	if !f.Any() {
		return ""
	}
	out := fmt.Sprintf(
		"fanout: %d trees (%d completed), %d replicas in %d waves, warm in %v",
		f.Trees, f.TreesCompleted, f.Recipients, f.Waves, f.TimeToWarm)
	if f.DonorCrashes > 0 || f.Reparents > 0 || f.CorruptOutputs > 0 {
		out += fmt.Sprintf(" | %d donor crashes (%d re-parents), %d corrupt (%d quarantined)",
			f.DonorCrashes, f.Reparents, f.CorruptOutputs, f.Quarantined)
	}
	if f.WaveCancels > 0 || f.LoadFallbacks > 0 {
		out += fmt.Sprintf(" | %d wave cancels, %d fallback loads",
			f.WaveCancels, f.LoadFallbacks)
	}
	return out
}

// FaultSummary renders the run's failure/recovery tallies, or "" when no
// fault was injected (so zero-rate runs print nothing new).
func (r *Report) FaultSummary() string {
	f := r.Faults
	if !f.Any() {
		return ""
	}
	out := fmt.Sprintf(
		"faults: %d transform fallbacks, %d load retries, %d crashes, %d outages | %d retries, %d dropped",
		f.TransformFallbacks, f.LoadRetries, f.Crashes, f.Outages, f.Retries, f.Dropped)
	if f.Hangs > 0 || f.WatchdogCancels > 0 || f.BreakerShortCircuits > 0 {
		out += fmt.Sprintf(" | %d hangs (%d watchdog-cancelled), %d breaker short-circuits",
			f.Hangs, f.WatchdogCancels, f.BreakerShortCircuits)
	}
	if f.SlowWindows > 0 || f.FlakyWindows > 0 || f.BandwidthWindows > 0 {
		out += fmt.Sprintf(" | gray: %d slow, %d flaky (%d fallbacks), %d bandwidth windows",
			f.SlowWindows, f.FlakyWindows, f.FlakyFallbacks, f.BandwidthWindows)
	}
	if f.HedgedTransforms > 0 || f.BackoffRetries > 0 {
		out += fmt.Sprintf(" | %d hedged (%d wins), %d backoff-delayed retries",
			f.HedgedTransforms, f.HedgeWins, f.BackoffRetries)
	}
	if r.Health.Episodes > 0 || r.Health.Suspects > 0 {
		out += fmt.Sprintf(" | health: %d episodes, MTTR %.0fms, %d quarantines",
			r.Health.Episodes, r.Health.MTTRMS, r.Health.Quarantines)
	}
	return out
}

// Summary renders a human-readable digest of the run.
func (r *Report) Summary() string {
	fr := r.KindFractions()
	return fmt.Sprintf(
		"%d requests: mean %v, p50 %v, p99 %v | warm %.1f%%, transform %.1f%%, cold %.1f%%",
		r.Len(), r.MeanLatency(), r.Percentile(50), r.Percentile(99),
		100*fr[metrics.StartWarm], 100*fr[metrics.StartTransform], 100*fr[metrics.StartCold])
}

// ---------------------------------------------------------------- Workloads

// PoissonTrace generates independent Poisson arrivals at ratePerSec for
// every function over the duration.
func PoissonTrace(fns []string, ratePerSec float64, duration time.Duration, seed int64) *Trace {
	return workload.Poisson(fns, ratePerSec, duration, seed)
}

// MixedPoissonTrace assigns functions round-robin to the paper's three
// Poisson intensities (§8.1).
func MixedPoissonTrace(fns []string, duration time.Duration, seed int64) *Trace {
	return workload.MixedPoisson(fns, duration, seed)
}

// AzureTrace generates the production-like synthetic workload substituting
// for the Microsoft Azure Functions trace (§8.1; see DESIGN.md).
func AzureTrace(fns []string, duration time.Duration, seed int64) *Trace {
	return workload.AzureLike(fns, duration, seed)
}

// WriteTrace persists a trace as CSV; ReadTrace loads one back.
func WriteTrace(w io.Writer, t *Trace) error { return t.WriteCSV(w) }

// ReadTrace loads a CSV trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return workload.ReadCSV(r) }

// ReadAzureInvocations parses the Microsoft Azure Functions production trace
// format (per-function per-minute invocation counts) into a replayable
// trace, for users with access to the proprietary dataset the paper uses.
func ReadAzureInvocations(r io.Reader) (*Trace, error) {
	return workload.ReadAzureInvocationsCSV(r)
}
