// Package cliutil holds small shared helpers for the command-line tools:
// probability-flag validation and rate-list parsing with consolidated error
// reporting, so every binary rejects bad input the same way, plus the shared
// -cpuprofile/-memprofile plumbing.
package cliutil

import (
	"flag"
	"fmt"
	"math"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/controlplane"
	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/ring"
	"repro/internal/supervisor"
)

// ValidateProbs checks that every named probability is a finite value in
// [0, 1]. It returns nil when all pass, otherwise a single error naming every
// offending flag and its value (sorted by flag name) so the user fixes them
// all in one round trip.
func ValidateProbs(probs map[string]float64) error {
	var bad []string
	for name, v := range probs {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			bad = append(bad, fmt.Sprintf("%s=%v", name, v))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("probability flags must be in [0,1]: %s", strings.Join(bad, ", "))
}

// ParseRates parses a comma-separated list of probabilities in [0, 1].
// Empty entries are skipped; every malformed, negative, non-finite, or
// out-of-range entry is collected into one consolidated error.
func ParseRates(s string) ([]float64, error) {
	var out []float64
	var bad []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("%q (not a number)", part))
		case math.IsNaN(v) || math.IsInf(v, 0):
			bad = append(bad, fmt.Sprintf("%q (not finite)", part))
		case v < 0 || v > 1:
			bad = append(bad, fmt.Sprintf("%q (outside [0,1])", part))
		default:
			out = append(out, v)
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("invalid rate entries: %s", strings.Join(bad, ", "))
	}
	return out, nil
}

// StartProfiles begins CPU profiling and/or arranges a heap profile, for the
// -cpuprofile/-memprofile flags the binaries share. Either path may be empty.
// The returned stop function finishes the CPU profile and writes the heap
// profile; call it exactly once (defer it after a nil-error return).
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
		}
		return nil
	}, nil
}

// FaultFlags bundles the fault-injection probability flags the binaries
// share, so flag registration, validation, and the consolidated error
// message live in one place instead of three copies.
type FaultFlags struct {
	Transform, Load, Crash, Outage, Hang *float64
	Slow, Flaky, Bandwidth               *float64
	FanoutCrash, Corrupt                 *float64
	// Checkpoint is nil unless registered (optimus-server only).
	Checkpoint *float64
}

// RegisterFaultFlags installs the shared -fault-* flags on fs. When
// checkpoint is true the checkpoint-write fault flag (durable-state binaries
// only) is registered too.
func RegisterFaultFlags(fs *flag.FlagSet, checkpoint bool) *FaultFlags {
	f := &FaultFlags{
		Transform: fs.Float64("fault-transform", 0, "probability a transformation aborts mid-flight (safeguard fallback)"),
		Load:      fs.Float64("fault-load", 0, "probability a from-scratch model load fails and restarts"),
		Crash:     fs.Float64("fault-crash", 0, "per-request probability the serving container crashes"),
		Outage:    fs.Float64("fault-outage", 0, "per-arrival probability the routed node goes down"),
		Hang:      fs.Float64("fault-hang", 0, "probability a transformation hangs instead of running to plan"),
		Slow:      fs.Float64("fault-slow", 0, "per-arrival probability the routed node enters a gray slowdown window"),
		Flaky:     fs.Float64("fault-flaky", 0, "probability a transform donor turns flaky for a window (intermittent aborts)"),
		Bandwidth: fs.Float64("fault-bandwidth", 0, "probability a node's transform bandwidth degrades for a window"),
		FanoutCrash: fs.Float64("fault-fanout-crash", 0,
			"probability a fan-out seed crashes mid-donation (orphans move to another seed)"),
		Corrupt: fs.Float64("fault-corrupt", 0,
			"probability a fan-out donation emits a corrupt model (the replica is quarantined and rebuilt)"),
	}
	if checkpoint {
		f.Checkpoint = fs.Float64("fault-checkpoint", 0, "probability a checkpoint write fails (previous snapshot kept)")
	}
	return f
}

// Validate checks every registered fault probability, reporting all bad
// values in one consolidated error (the ValidateProbs contract).
func (f *FaultFlags) Validate() error {
	probs := map[string]float64{
		"-fault-transform":    *f.Transform,
		"-fault-load":         *f.Load,
		"-fault-crash":        *f.Crash,
		"-fault-outage":       *f.Outage,
		"-fault-hang":         *f.Hang,
		"-fault-slow":         *f.Slow,
		"-fault-flaky":        *f.Flaky,
		"-fault-bandwidth":    *f.Bandwidth,
		"-fault-fanout-crash": *f.FanoutCrash,
		"-fault-corrupt":      *f.Corrupt,
	}
	if f.Checkpoint != nil {
		probs["-fault-checkpoint"] = *f.Checkpoint
	}
	return ValidateProbs(probs)
}

// Rates resolves the parsed flags into the injector's rate set.
func (f *FaultFlags) Rates() faults.Rates {
	r := faults.Rates{
		Transform:   *f.Transform,
		Load:        *f.Load,
		Crash:       *f.Crash,
		Outage:      *f.Outage,
		Hang:        *f.Hang,
		Slow:        *f.Slow,
		Flaky:       *f.Flaky,
		Bandwidth:   *f.Bandwidth,
		FanoutCrash: *f.FanoutCrash,
		Corrupt:     *f.Corrupt,
	}
	if f.Checkpoint != nil {
		r.CheckpointWrite = *f.Checkpoint
	}
	return r
}

// ResilienceFlags bundles the gray-failure resilience flags (health state
// machine, retry backoff, hedged transforms) the binaries share.
type ResilienceFlags struct {
	Health        *bool
	HealthObserve *bool
	Quarantine    *time.Duration
	Drain         *time.Duration
	RetryBackoff  *time.Duration
	HedgePct      *float64
}

// RegisterResilienceFlags installs the shared resilience flags on fs.
func RegisterResilienceFlags(fs *flag.FlagSet) *ResilienceFlags {
	return &ResilienceFlags{
		Health:        fs.Bool("health", false, "enable the per-node health state machine (suspect → quarantine → drain)"),
		HealthObserve: fs.Bool("health-observe", false, "track node health but never steer routing (implies -health)"),
		Quarantine:    fs.Duration("health-quarantine", 0, "quarantine window before a sick node starts draining (default 60s)"),
		Drain:         fs.Duration("health-drain", 0, "drain timeout before a quarantined node re-enters rotation (default 30s)"),
		RetryBackoff:  fs.Duration("retry-backoff", 0, "base delay for the seeded exponential crash-retry backoff (0 disables)"),
		HedgePct:      fs.Float64("hedge-percentile", 0, "hedge hung transforms at this observed-latency percentile (0 disables; e.g. 95)"),
	}
}

// Validate checks the resilience flag values, reporting every bad value in
// one consolidated error like ValidateProbs.
func (r *ResilienceFlags) Validate() error {
	var bad []string
	if p := *r.HedgePct; math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 100 {
		bad = append(bad, fmt.Sprintf("-hedge-percentile=%v (want [0,100])", p))
	}
	for name, d := range map[string]time.Duration{
		"-health-quarantine": *r.Quarantine,
		"-health-drain":      *r.Drain,
		"-retry-backoff":     *r.RetryBackoff,
	} {
		if d < 0 {
			bad = append(bad, fmt.Sprintf("%s=%v (want ≥ 0)", name, d))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("invalid resilience flags: %s", strings.Join(bad, ", "))
}

// HealthConfig resolves the health flags; unset durations keep the package
// defaults.
func (r *ResilienceFlags) HealthConfig() health.Config {
	return health.Config{
		Enabled:            *r.Health || *r.HealthObserve,
		ObserveOnly:        *r.HealthObserve,
		QuarantineDuration: *r.Quarantine,
		DrainTimeout:       *r.Drain,
	}
}

// BackoffConfig resolves the retry-backoff flag (zero base disables).
func (r *ResilienceFlags) BackoffConfig() supervisor.BackoffConfig {
	return supervisor.BackoffConfig{Base: *r.RetryBackoff}
}

// HedgeConfig resolves the hedge flag (zero percentile disables).
func (r *ResilienceFlags) HedgeConfig() supervisor.HedgeConfig {
	return supervisor.HedgeConfig{Percentile: *r.HedgePct}
}

// FanoutFlags bundles the fan-out flags the binaries share
// (one registration + validation path, like FaultFlags).
type FanoutFlags struct {
	Enabled   *bool
	Bandwidth *int
	Threshold *int
	Max       *int
}

// RegisterFanoutFlags installs the shared -fanout* flags on fs.
func RegisterFanoutFlags(fs *flag.FlagSet) *FanoutFlags {
	return &FanoutFlags{
		Enabled:   fs.Bool("fanout", false, "enable fan-out: absorb a burst with one wave of replicas streamed from the warm seeds"),
		Bandwidth: fs.Int("fanout-bandwidth", 0, "concurrent outbound donation streams per node (default 2)"),
		Threshold: fs.Int("fanout-threshold", 0, "per-node queue depth that triggers a fan-out (default 4)"),
		Max:       fs.Int("fanout-max", 0, "cap on replicas one fan-out builds (default 16)"),
	}
}

// Validate checks the fan-out flag values, reporting every bad value in one
// consolidated error like ValidateProbs.
func (f *FanoutFlags) Validate() error {
	var bad []string
	for name, v := range map[string]int{
		"-fanout-bandwidth": *f.Bandwidth,
		"-fanout-threshold": *f.Threshold,
		"-fanout-max":       *f.Max,
	} {
		if v < 0 {
			bad = append(bad, fmt.Sprintf("%s=%d (want ≥ 0)", name, v))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("invalid fanout flags: %s", strings.Join(bad, ", "))
}

// Config resolves the parsed flags into the fan-out configuration; zero
// values keep the package defaults.
func (f *FanoutFlags) Config() fanout.Config {
	return fanout.Config{
		Enabled:       *f.Enabled,
		Bandwidth:     *f.Bandwidth,
		Threshold:     *f.Threshold,
		MaxRecipients: *f.Max,
	}
}

// ControlPlaneFlags bundles the multi-gateway control-plane flags: the
// process's ring identity, the peer set, and the ring's virtual-node count
// (one registration + validation path, like FaultFlags).
type ControlPlaneFlags struct {
	Self   *string
	Peers  *string
	VNodes *int
}

// RegisterControlPlaneFlags installs the shared control-plane flags on fs.
func RegisterControlPlaneFlags(fs *flag.FlagSet) *ControlPlaneFlags {
	return &ControlPlaneFlags{
		Self: fs.String("self", "gw-0",
			"this process's ring identity; must appear in -peers"),
		Peers: fs.String("peers", "",
			"multi-gateway peer set as id=url,... (empty = single gateway); all peers must list the same set"),
		VNodes: fs.Int("ring-vnodes", 0,
			fmt.Sprintf("virtual nodes per ring member (0 = default %d)", ring.DefaultVNodes)),
	}
}

// Enabled reports whether a multi-gateway peer set was given.
func (c *ControlPlaneFlags) Enabled() bool { return strings.TrimSpace(*c.Peers) != "" }

// Validate checks the control-plane flag values, reporting every bad value
// in one consolidated error like ValidateProbs.
func (c *ControlPlaneFlags) Validate() error {
	var bad []string
	if *c.VNodes < 0 {
		bad = append(bad, fmt.Sprintf("-ring-vnodes=%d (want ≥ 0)", *c.VNodes))
	}
	if c.Enabled() {
		peers, errs := parsePeers(*c.Peers)
		bad = append(bad, errs...)
		if len(errs) == 0 {
			found := false
			for _, p := range peers {
				if p.ID == *c.Self {
					found = true
					break
				}
			}
			if !found {
				bad = append(bad, fmt.Sprintf("-self=%q (not in -peers)", *c.Self))
			}
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("invalid control-plane flags: %s", strings.Join(bad, ", "))
}

// PeerSet resolves the parsed -peers list; call after Validate.
func (c *ControlPlaneFlags) PeerSet() ([]controlplane.Peer, error) {
	peers, errs := parsePeers(*c.Peers)
	if len(errs) > 0 {
		sort.Strings(errs)
		return nil, fmt.Errorf("invalid control-plane flags: %s", strings.Join(errs, ", "))
	}
	return peers, nil
}

// RingVNodes resolves the vnode count; zero keeps the ring default.
func (c *ControlPlaneFlags) RingVNodes() int {
	if *c.VNodes > 0 {
		return *c.VNodes
	}
	return ring.DefaultVNodes
}

// parsePeers parses an id=url,... list, collecting every malformed entry
// and duplicate ID into the returned error strings.
func parsePeers(s string) ([]controlplane.Peer, []string) {
	var peers []controlplane.Peer
	var bad []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, rawURL, ok := strings.Cut(part, "=")
		if !ok || id == "" || rawURL == "" {
			bad = append(bad, fmt.Sprintf("-peers entry %q (want id=url)", part))
			continue
		}
		if seen[id] {
			bad = append(bad, fmt.Sprintf("-peers entry %q (duplicate id %q)", part, id))
			continue
		}
		u, err := url.Parse(rawURL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			bad = append(bad, fmt.Sprintf("-peers entry %q (URL must be absolute)", part))
			continue
		}
		seen[id] = true
		peers = append(peers, controlplane.Peer{ID: id, URL: u})
	}
	return peers, bad
}

// ParseChaosRates parses a -chaos-rates flag value, wrapping errors with the
// flag name so every binary reports them identically.
func ParseChaosRates(s string) ([]float64, error) {
	rates, err := ParseRates(s)
	if err != nil {
		return nil, fmt.Errorf("bad -chaos-rates: %w", err)
	}
	return rates, nil
}
