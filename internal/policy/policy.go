// Package policy implements the container-management policies compared in
// §8: the OpenWhisk baseline (cold start from scratch), Pagurus
// (inter-function container sharing that saves sandbox/runtime init),
// Tetris (tensor/operation sharing across co-located containers), and
// Optimus (inter-function model transformation).
//
// All policies share the simulator's warm-start fast path and the 10-minute
// keep-alive; they differ only in what happens when a function has no warm
// container.
package policy

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/simulate"
)

// warmOrNil returns the shared warm-start decision when available.
func warmOrNil(n *simulate.Node, fn *simulate.Function, now time.Duration) (simulate.Decision, bool) {
	if c := n.WarmIdle(fn, now); c != nil {
		return simulate.Decision{Kind: metrics.StartWarm, Reuse: c}, true
	}
	return simulate.Decision{}, false
}

// OpenWhisk is the traditional baseline: warm start when possible, otherwise
// a full cold start (sandbox + runtime init, then the whole model load).
type OpenWhisk struct{}

// Name implements simulate.Policy.
func (OpenWhisk) Name() string { return "openwhisk" }

// Serve implements simulate.Policy.
func (OpenWhisk) Serve(env *simulate.Env, n *simulate.Node, fn *simulate.Function, now time.Duration) (simulate.Decision, bool) {
	if d, ok := warmOrNil(n, fn, now); ok {
		return d, true
	}
	if !n.CanPlaceFor(now, env.GrantFor(fn)) {
		return simulate.Decision{}, false
	}
	return simulate.Decision{
		Kind: metrics.StartCold,
		Init: env.Profile.SandboxInit,
		Load: env.ModelLoad(fn.Model),
	}, true
}

// Pagurus repurposes a warm-but-idle container of another function: the
// sandbox and runtime (with the common ML packages) are reused, saving the
// initialization latency, but the new model still loads from scratch —
// exactly why Pagurus gains little for ML inference (§1, §2.2).
type Pagurus struct{}

// Name implements simulate.Policy.
func (Pagurus) Name() string { return "pagurus" }

// Serve implements simulate.Policy.
func (Pagurus) Serve(env *simulate.Env, n *simulate.Node, fn *simulate.Function, now time.Duration) (simulate.Decision, bool) {
	if d, ok := warmOrNil(n, fn, now); ok {
		return d, true
	}
	if idle := n.RepurposeCandidates(env, fn, now); len(idle) > 0 {
		return simulate.Decision{
			Kind:  metrics.StartTransform,
			Load:  env.ModelLoad(fn.Model),
			Reuse: oldestIdle(idle, now),
		}, true
	}
	if !n.CanPlaceFor(now, env.GrantFor(fn)) {
		return simulate.Decision{}, false
	}
	return simulate.Decision{
		Kind: metrics.StartCold,
		Init: env.Profile.SandboxInit,
		Load: env.ModelLoad(fn.Model),
	}, true
}

// Tetris starts a new container whose runtime and identical tensors are
// memory-mapped from containers already running on the node: operations with
// the same type, shape and weights as any co-located operation are shared
// instead of loaded (Li et al., ATC '22). Heterogeneous models share little,
// which is the limitation Optimus overcomes (§2.1).
type Tetris struct {
	// ForkInit is the latency of mapping the runtime from an existing
	// container instead of initializing a fresh sandbox.
	ForkInit time.Duration
}

// Name implements simulate.Policy.
func (Tetris) Name() string { return "tetris" }

// Serve implements simulate.Policy.
func (t Tetris) Serve(env *simulate.Env, n *simulate.Node, fn *simulate.Function, now time.Duration) (simulate.Decision, bool) {
	if d, ok := warmOrNil(n, fn, now); ok {
		return d, true
	}
	if !n.CanPlaceFor(now, env.GrantFor(fn)) {
		return simulate.Decision{}, false
	}
	if !n.AnyContainer() {
		return simulate.Decision{
			Kind: metrics.StartCold,
			Init: env.Profile.SandboxInit,
			Load: env.ModelLoad(fn.Model),
		}, true
	}
	forkInit := t.ForkInit
	if forkInit == 0 {
		forkInit = 30 * time.Millisecond
	}
	// Mapping the runtime replaces language/framework boot, but the new
	// container itself must still be created.
	return simulate.Decision{
		Kind: metrics.StartTransform,
		Init: env.Profile.ContainerCreate + forkInit,
		Load: t.sharedLoad(env, n, fn),
	}, true
}

// sharedLoad computes fn's model-load latency when every operation identical
// to one in a co-located container is shared for free.
func (t Tetris) sharedLoad(env *simulate.Env, n *simulate.Node, fn *simulate.Function) time.Duration {
	type opKey struct {
		typ     model.OpType
		shape   model.Shape
		weights uint64
	}
	avail := make(map[opKey]bool)
	for _, c := range n.Containers {
		for _, op := range c.Fn.Model.Ops() {
			avail[opKey{op.Type, op.Shape, op.WeightsID}] = true
		}
	}
	var load time.Duration
	load += env.Profile.DeserializeBase
	for _, op := range fn.Model.Ops() {
		if avail[opKey{op.Type, op.Shape, op.WeightsID}] {
			continue
		}
		load += env.Profile.OpLoad(op)
	}
	return load
}

// Optimus transforms the model inside a warm-but-idle container of another
// function into the requested model via the cached meta-operator plan
// (§4.4 Module 3). Among eligible idle containers it picks the cheapest
// transformation source by the pairs' cached costs and charges the chosen
// pair's true cost, handing the engine the pair's cached strategy without
// building its steps; the safeguard falls back to loading from scratch
// inside the reused container (still saving sandbox init) when
// transformation would be slower.
type Optimus struct{}

// Name implements simulate.Policy.
func (Optimus) Name() string { return "optimus" }

// Serve implements simulate.Policy.
func (Optimus) Serve(env *simulate.Env, n *simulate.Node, fn *simulate.Function, now time.Duration) (simulate.Decision, bool) {
	if d, ok := warmOrNil(n, fn, now); ok {
		return d, true
	}
	if idle := n.RepurposeCandidates(env, fn, now); len(idle) > 0 {
		best, k := pickSource(env, idle, fn)
		load := k.True
		if k.LoadFromScratch {
			load = env.ModelLoad(fn.Model)
		}
		return simulate.Decision{
			Kind:     metrics.StartTransform,
			Load:     load,
			Reuse:    best,
			Strategy: k,
		}, true
	}
	if !n.CanPlaceFor(now, env.GrantFor(fn)) {
		return simulate.Decision{}, false
	}
	return simulate.Decision{
		Kind: metrics.StartCold,
		Init: env.Profile.SandboxInit,
		Load: env.ModelLoad(fn.Model),
	}, true
}

// pickSource returns the idle container with the cheapest (estimated)
// transformation into fn's model, with the pair's cost. Donors are ranked by
// cost alone; no steps are built.
func pickSource(env *simulate.Env, idle []*simulate.Container, fn *simulate.Function) (*simulate.Container, planner.Costed) {
	var best *simulate.Container
	var bestCost planner.Costed
	for _, c := range idle {
		k := env.Plans.GetOrCost(env.Planner, c.Fn.Model, fn.Model)
		if best == nil || k.Rank() < bestCost.Rank() {
			best, bestCost = c, k
		}
	}
	return best, bestCost
}

// oldestIdle returns the container idle the longest (Pagurus repurposes the
// most-stale container first, minimizing interference with its own function).
func oldestIdle(idle []*simulate.Container, now time.Duration) *simulate.Container {
	best := idle[0]
	for _, c := range idle[1:] {
		if c.IdleFor(now) > best.IdleFor(now) {
			best = c
		}
	}
	return best
}

// All returns the four compared policies in presentation order.
func All() []simulate.Policy {
	return []simulate.Policy{OpenWhisk{}, Pagurus{}, Tetris{}, Optimus{}}
}
