// Package faults is a seeded, deterministic fault-injection layer for the
// cluster simulator and gateway. An Injector is configured with per-event
// failure probabilities and driven by a single PRNG, so a run with a fixed
// seed and fixed rates reproduces the exact same fault sequence — chaos
// experiments stay replayable and regressions bisectable.
//
// Determinism contract: Fire draws from the PRNG only when the queried
// event's rate is nonzero. Enabling one event therefore never perturbs the
// fault sequence of another, and a run with every rate at zero consumes no
// randomness at all (it is byte-identical to a run without the injector).
package faults

import (
	"fmt"
	"math/rand"
)

// Event enumerates the failure classes the injector can trigger.
type Event int

const (
	// Transform is a meta-operator transformation aborting mid-flight; the
	// victim recovers through the safeguard path (load from scratch,
	// charging the wasted partial-transform time).
	Transform Event = iota
	// Load is a from-scratch model load failing partway and restarting
	// inside the same container.
	Load
	// Crash is a container dying while serving a request; the request is
	// re-dispatched with a bounded retry budget.
	Crash
	// Outage is a worker node going down: its containers are lost and its
	// queued and in-flight requests are re-dispatched elsewhere.
	Outage
	// Hang is a transformation stalling instead of aborting: without a
	// watchdog it blocks its container far past the planned cost before
	// finishing; with one it is cancelled at the deadline and recovered
	// through the safeguard path.
	Hang
	// CheckpointWrite is a durable-checkpoint write failing partway (disk
	// full, torn write); the atomic tmp+rename protocol must leave the
	// previous checkpoint intact.
	CheckpointWrite
	// Slow is a gray failure: the routed node enters a degraded window in
	// which every request it serves runs a configured latency multiplier
	// slower, without ever failing outright.
	Slow
	// Flaky is a gray failure: a donor node enters a window in which
	// transformations sourced from its containers abort intermittently and
	// recover through the safeguard path.
	Flaky
	// Bandwidth is a gray failure: a node's transform bandwidth degrades for
	// a window, multiplying the cost of transformations executed on it.
	Bandwidth
	// FanoutCrash is a seed container dying mid-fan-out while streaming
	// weights to a child: its in-flight children are orphaned and move to
	// another seed, or fall back to a from-scratch load.
	FanoutCrash
	// Corrupt is a fan-out donation completing but emitting a corrupt model:
	// the meta-operator edge-balance verification catches it at completion,
	// and the replica is quarantined before it serves.
	Corrupt
	eventCount
)

// String names the event.
func (e Event) String() string {
	switch e {
	case Transform:
		return "transform"
	case Load:
		return "load"
	case Crash:
		return "crash"
	case Outage:
		return "outage"
	case Hang:
		return "hang"
	case CheckpointWrite:
		return "checkpoint-write"
	case Slow:
		return "slow"
	case Flaky:
		return "flaky"
	case Bandwidth:
		return "bandwidth"
	case FanoutCrash:
		return "fanout-crash"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// Rates holds the per-event failure probabilities, each in [0, 1]. The zero
// value disables injection entirely.
type Rates struct {
	// Transform is the probability a transformation aborts mid-flight.
	Transform float64
	// Load is the probability a from-scratch model load fails and restarts.
	Load float64
	// Crash is the per-request probability the serving container dies.
	Crash float64
	// Outage is the per-arrival probability the routed node goes down.
	Outage float64
	// Hang is the probability a transformation stalls instead of running to
	// plan (detected and cancelled only when a watchdog is configured).
	Hang float64
	// CheckpointWrite is the probability a durable-checkpoint write fails.
	CheckpointWrite float64
	// Slow is the per-arrival probability the routed node enters a gray
	// slow-node window (latency multiplier, no hard failure).
	Slow float64
	// Flaky is the per-transform probability the donor node enters a flaky
	// window during which its transformations abort intermittently.
	Flaky float64
	// Bandwidth is the per-transform probability the executing node's
	// transform bandwidth degrades for a window.
	Bandwidth float64
	// FanoutCrash is the per-donation probability the donor container dies
	// midway through streaming weights to a fan-out child.
	FanoutCrash float64
	// Corrupt is the per-completion probability a fan-out child finishes
	// with a corrupt model (detected only at the wave-boundary edge-balance
	// verification).
	Corrupt float64
}

// Enabled reports whether any rate is nonzero.
func (r Rates) Enabled() bool {
	return r.Transform > 0 || r.Load > 0 || r.Crash > 0 || r.Outage > 0 ||
		r.Hang > 0 || r.CheckpointWrite > 0 ||
		r.Slow > 0 || r.Flaky > 0 || r.Bandwidth > 0 ||
		r.FanoutCrash > 0 || r.Corrupt > 0
}

func (r Rates) rate(e Event) float64 {
	switch e {
	case Transform:
		return r.Transform
	case Load:
		return r.Load
	case Crash:
		return r.Crash
	case Outage:
		return r.Outage
	case Hang:
		return r.Hang
	case CheckpointWrite:
		return r.CheckpointWrite
	case Slow:
		return r.Slow
	case Flaky:
		return r.Flaky
	case Bandwidth:
		return r.Bandwidth
	case FanoutCrash:
		return r.FanoutCrash
	case Corrupt:
		return r.Corrupt
	default:
		return 0
	}
}

// Injector draws fault decisions from a seeded PRNG. A nil *Injector is
// valid and never fires, so callers thread it without nil checks. Injector
// is not safe for concurrent use; the simulator calls it under its own lock.
type Injector struct {
	rng    *rand.Rand
	rates  Rates
	counts [eventCount]int
}

// New returns an injector for the given seed and rates, or nil when every
// rate is zero (injection disabled).
func New(seed int64, r Rates) *Injector {
	if !r.Enabled() {
		return nil
	}
	return &Injector{rng: rand.New(rand.NewSource(seed)), rates: r}
}

// Fire reports whether the event fails this time. It consumes randomness
// only when the event's rate is nonzero (see the package determinism
// contract) and tallies fired faults.
func (i *Injector) Fire(e Event) bool {
	if i == nil {
		return false
	}
	rate := i.rates.rate(e)
	if rate <= 0 {
		return false
	}
	if i.rng.Float64() >= rate {
		return false
	}
	i.counts[e]++
	return true
}

// Count returns how many times the event has fired.
func (i *Injector) Count(e Event) int {
	if i == nil || e < 0 || e >= eventCount {
		return 0
	}
	return i.counts[e]
}

// Total returns the number of faults fired across all events.
func (i *Injector) Total() int {
	if i == nil {
		return 0
	}
	t := 0
	for _, c := range i.counts {
		t += c
	}
	return t
}
