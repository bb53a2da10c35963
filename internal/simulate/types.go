// Package simulate is a discrete-event simulator for a serverless ML
// inference cluster: nodes host a bounded number of containers, each
// container holds one loaded model, and a pluggable container-management
// policy (package policy) decides per request whether to reuse a warm
// container, repurpose an idle one, or start cold.
//
// Time is virtual (time.Duration offsets from simulation start); all
// latencies are charged from the cost model, so runs are deterministic and
// fast regardless of the simulated horizon.
package simulate

import (
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
)

// Function is a deployed serverless ML inference function: a name bound to a
// model graph.
type Function struct {
	Name  string
	Model *model.Graph
}

// Container is a (simulated) container hosting one model.
type Container struct {
	ID int
	// Fn is the function whose model the container currently holds.
	Fn *Function
	// MemMB is the container's memory grant. Zero in the default slot-based
	// mode; set by the memory-aware allocation modes (§6).
	MemMB int
	// BusyUntil is the completion time of the in-flight request, if any.
	BusyUntil time.Duration
	// LastDone is when the container last finished serving. The paper's
	// per-container timer resets on every new request; equivalently a
	// container's idle age at time t is t - LastDone.
	LastDone time.Duration
	// Created is the container's creation time.
	Created time.Duration

	// dead marks a container destroyed by an injected crash or node
	// outage; pending completion events for it are ignored.
	dead bool
	// fanoutFresh marks a replica just warmed by a fan-out transform tree;
	// its first warm reuse is recorded as a StartFanout and clears the flag.
	// fanoutBuilt persists for the container's lifetime: tree-built warmth
	// serves the whole cluster, so whenever such a replica idles it may steal
	// queued work from other nodes regardless of static placement.
	fanoutFresh bool
	fanoutBuilt bool
	// crashPending marks a container whose current service was scheduled as a
	// crash (its record is NOT committed yet — the crash event resolves the
	// request). Every other serving container's record was committed at serve
	// time, so paths that destroy containers mid-service re-dispatch the
	// in-flight request only when crashPending is set; retrying a committed
	// request would double-count it.
	crashPending bool
	// idxState is the routing index's view of the container (idx* constants);
	// idxNone when the node's index is disabled.
	idxState uint8
	// idxOrd is the function ordinal the container's index registration is
	// counted under; rewritten by startService when the container is served
	// (possibly repurposed) for another function.
	idxOrd int32
	// serving is the request in flight (valid when hasServing), kept so a
	// crash or outage can re-dispatch it (trace-replay mode only). A value
	// rather than a pointer so the hot path never allocates per request.
	serving    inflight
	hasServing bool
}

// inflight is the bookkeeping for a request being served, carried so fault
// recovery can re-dispatch it with its retry budget.
type inflight struct {
	fr      *fnRuntime
	arrival time.Duration
	retries int
}

// Busy reports whether the container is serving a request at time now. A
// container whose service ends in a crash stays busy through its crash point:
// it dies there, so a request arriving at that very instant must not reuse it.
func (c *Container) Busy(now time.Duration) bool { return c.BusyUntil > now || c.crashPending }

// IdleFor returns how long the container has been idle at time now
// (zero if busy).
func (c *Container) IdleFor(now time.Duration) time.Duration {
	if c.Busy(now) {
		return 0
	}
	if now < c.LastDone {
		return 0
	}
	return now - c.LastDone
}

// Node is a worker machine hosting up to Capacity containers and, when
// MemoryMB is nonzero, at most MemoryMB of container memory.
type Node struct {
	ID         int
	Capacity   int
	MemoryMB   int
	Containers []*Container
	// DownUntil, when in the future, marks the node as failed by an
	// injected outage: routing skips it until it recovers.
	DownUntil time.Duration
	// SlowUntil, FlakyUntil and BandwidthUntil mark gray-failure windows:
	// the node keeps serving, but slower (latency multiplier), with flaky
	// transform donors, or with degraded transform bandwidth.
	SlowUntil      time.Duration
	FlakyUntil     time.Duration
	BandwidthUntil time.Duration

	queue  []queued
	nextID int
	// idx is the incrementally-maintained routing index (index.go); nil when
	// the simulator routes by scanning (Online mode, RouteScan baseline).
	idx *nodeIndex
}

// Down reports whether the node is out due to an injected outage.
func (n *Node) Down(now time.Duration) bool { return n.DownUntil > now }

// Slow reports whether the node is inside a gray slow-node window.
func (n *Node) Slow(now time.Duration) bool { return n.SlowUntil > now }

// Flaky reports whether the node is inside a flaky-donor window.
func (n *Node) Flaky(now time.Duration) bool { return n.FlakyUntil > now }

// DegradedBandwidth reports whether the node's transform bandwidth is
// degraded.
func (n *Node) DegradedBandwidth(now time.Duration) bool { return n.BandwidthUntil > now }

// UsedMB sums the memory grants of resident containers.
func (n *Node) UsedMB() int {
	total := 0
	for _, c := range n.Containers {
		total += c.MemMB
	}
	return total
}

// fitsMemory reports whether a new grant of need MB fits now.
func (n *Node) fitsMemory(need int) bool {
	return n.MemoryMB == 0 || n.UsedMB()+need <= n.MemoryMB
}

type queued struct {
	fr      *fnRuntime
	arrival time.Duration
	retries int
}

// WarmIdle returns an idle container already holding fn's model, or nil.
func (n *Node) WarmIdle(fn *Function, now time.Duration) *Container {
	for _, c := range n.Containers {
		if !c.Busy(now) && c.Fn == fn {
			return c
		}
	}
	return nil
}

// IdleOthers returns containers of other functions that have been idle for
// at least minIdle (the idle-container identification mechanism of §4.2).
func (n *Node) IdleOthers(fn *Function, now, minIdle time.Duration) []*Container {
	var out []*Container
	for _, c := range n.Containers {
		if c.Fn != fn && !c.Busy(now) && c.IdleFor(now) >= minIdle {
			out = append(out, c)
		}
	}
	return out
}

// HasIdleOther reports whether the node holds at least one container of
// another function idle for at least minIdle — the IdleOthers predicate
// without materializing the slice, so routing scores allocate nothing.
func (n *Node) HasIdleOther(fn *Function, now, minIdle time.Duration) bool {
	for _, c := range n.Containers {
		if c.Fn != fn && !c.Busy(now) && c.IdleFor(now) >= minIdle {
			return true
		}
	}
	return false
}

// RepurposeCandidates returns the idle containers of other functions that a
// sharing policy may repurpose at time now. Eligibility follows the
// "help rather than recycle" principle the sharing systems are built on: a
// container is offered to other functions only when its owner is unlikely
// to use it again —
//
//   - the node is out of free slots (the next cold start would evict it
//     anyway), or
//   - its idle age exceeds half the keep-alive horizon (owners that idle
//     this long usually let the container expire), or
//   - its owner's observed inter-arrival time says the owner is overdue
//     (idle for at least twice the owner's typical gap).
//
// This keeps sharing from cannibalizing warm containers that hot functions
// are about to reuse.
func (n *Node) RepurposeCandidates(env *Env, fn *Function, now time.Duration) []*Container {
	idle := n.IdleOthers(fn, now, env.IdleThreshold)
	if env.MemoryMode != MemorySlots {
		// A donor can only host the destination model if it fits the
		// donor's memory grant (fine-grained containers cannot grow in
		// place; homogeneous ones are uniform).
		need := env.Profile.MemoryMB(fn.Model)
		fitting := idle[:0]
		for _, c := range idle {
			if need <= c.MemMB {
				fitting = append(fitting, c)
			}
		}
		idle = fitting
	}
	if len(idle) == 0 {
		return nil
	}
	if !n.HasRoomFor(env.GrantFor(fn)) {
		return idle
	}
	nearExpiry := env.KeepAlive / 2
	var out []*Container
	for _, c := range idle {
		if c.IdleFor(now) >= nearExpiry {
			out = append(out, c)
			continue
		}
		if env.MeanInterArrival != nil {
			if gap, ok := env.MeanInterArrival(c.Fn.Name); ok && c.IdleFor(now) >= 2*gap {
				out = append(out, c)
			}
		}
	}
	return out
}

// AnyContainer reports whether the node currently hosts any container.
func (n *Node) AnyContainer() bool { return len(n.Containers) > 0 }

// HasRoom reports whether a new container fits without eviction. In
// memory-aware modes callers should use HasRoomFor with the desired grant.
func (n *Node) HasRoom() bool { return n.HasRoomFor(0) }

// HasRoomFor reports whether a container with the given memory grant fits
// without eviction.
func (n *Node) HasRoomFor(memMB int) bool {
	return len(n.Containers) < n.Capacity && n.fitsMemory(memMB)
}

// CanPlace reports whether a new container could be started now, evicting
// idle containers if necessary.
func (n *Node) CanPlace(now time.Duration) bool { return n.CanPlaceFor(now, 0) }

// CanPlaceFor is CanPlace for a container of the given memory grant: idle
// containers count as reclaimable slots and memory.
func (n *Node) CanPlaceFor(now time.Duration, memMB int) bool {
	slots := len(n.Containers)
	free := 0
	if n.MemoryMB > 0 {
		free = n.MemoryMB - n.UsedMB()
	}
	for _, c := range n.Containers {
		if !c.Busy(now) {
			slots--
			free += c.MemMB
		}
	}
	if slots >= n.Capacity {
		return false
	}
	return n.MemoryMB == 0 || free >= memMB
}

// EvictExpired removes containers idle longer than keepAlive (the 10-minute
// keep-alive strategy all compared systems share, §8.1). With the routing
// index enabled it keeps a conservative lower bound on the earliest possible
// expiry and skips the scan entirely until then; the bound accounts for the
// stale-LastDone boundary (a container at now == BusyUntil whose completion
// event has not yet run is judged by its previous LastDone, exactly as the
// scan does).
func (n *Node) EvictExpired(now, keepAlive time.Duration) {
	if ix := n.idx; ix != nil && ix.evictSet && now < ix.nextEvict {
		return
	}
	kept := n.Containers[:0]
	for _, c := range n.Containers {
		if !c.Busy(now) && c.IdleFor(now) >= keepAlive {
			if n.idx != nil {
				n.idx.remove(c)
			}
			continue
		}
		kept = append(kept, c)
	}
	n.Containers = kept
	if ix := n.idx; ix != nil {
		// Recompute the bound: an idle container can expire at
		// LastDone+keepAlive; a busy one no earlier than both its BusyUntil
		// and its (stale) LastDone+keepAlive; containers created later expire
		// no earlier than now+keepAlive.
		next := now + keepAlive
		for _, c := range n.Containers {
			e := c.LastDone + keepAlive
			if c.Busy(now) && c.BusyUntil > e {
				e = c.BusyUntil
			}
			if e < next {
				next = e
			}
		}
		ix.nextEvict, ix.evictSet = next, true
	}
}

// evictLRUIdle removes the longest-idle container to make room; it returns
// false if every container is busy.
func (n *Node) evictLRUIdle(now time.Duration) bool {
	idx := -1
	var best time.Duration = -1
	for i, c := range n.Containers {
		if c.Busy(now) {
			continue
		}
		if f := c.IdleFor(now); f > best {
			best = f
			idx = i
		}
	}
	if idx < 0 {
		return false
	}
	if n.idx != nil {
		n.idx.remove(n.Containers[idx])
	}
	n.Containers = append(n.Containers[:idx], n.Containers[idx+1:]...)
	return true
}

// newContainer creates and registers a fresh container with the given
// memory grant; callers must have checked CanPlaceFor. Idle containers are
// evicted LRU-first until the new one fits.
func (n *Node) newContainer(fn *Function, memMB int, now time.Duration) *Container {
	for !n.HasRoomFor(memMB) {
		if !n.evictLRUIdle(now) {
			break
		}
	}
	c := &Container{ID: n.ID*1_000_000 + n.nextID, Fn: fn, MemMB: memMB, Created: now, LastDone: now}
	n.nextID++
	n.Containers = append(n.Containers, c)
	if n.idx != nil {
		n.idx.add(c, now)
	}
	return c
}

// Remove deletes a container from the node (used when a repurposed container
// is replaced wholesale).
func (n *Node) Remove(c *Container) {
	for i, x := range n.Containers {
		if x == c {
			if n.idx != nil {
				n.idx.remove(c)
			}
			n.Containers = append(n.Containers[:i], n.Containers[i+1:]...)
			return
		}
	}
}

// Decision is a policy's answer for one request.
type Decision struct {
	// Kind classifies the start for Fig 14 accounting.
	Kind metrics.StartKind
	// Init is the sandbox/runtime initialization latency charged.
	Init time.Duration
	// Load is the model acquisition latency charged (full load,
	// transformation cost, or zero for a warm start).
	Load time.Duration
	// Reuse, when non-nil, is the existing container that serves the
	// request; nil means a new container is created.
	Reuse *Container
	// Strategy, when valid, is the cached transformation strategy behind a
	// model-transformation decision. Load is charged from its Cost; its
	// steps are built only where something reads them (verification and
	// online profiling).
	Strategy planner.Costed
}

// MemoryMode selects how container memory is allocated (§6 Limitation 1).
type MemoryMode int

const (
	// MemorySlots ignores memory: nodes host up to Capacity containers
	// (the paper's homogeneous "same and sufficient resources" default).
	MemorySlots MemoryMode = iota
	// MemoryHomogeneous grants every container the same fixed memory and
	// bounds nodes by total memory — large-model containers repurposed for
	// small models waste their surplus.
	MemoryHomogeneous
	// MemoryFineGrained sizes each container to its model's footprint and
	// resizes on transformation, packing more containers per node.
	MemoryFineGrained
)

// Env is the shared context policies consult.
type Env struct {
	Profile *cost.Profile
	Planner *planner.Planner
	Plans   *planner.Cache
	// MemoryMode and ContainerMemoryMB configure the allocation mode.
	MemoryMode        MemoryMode
	ContainerMemoryMB int
	// IdleThreshold is the minimum idle age before a container of another
	// function may be repurposed (§4.2; default 60 s).
	IdleThreshold time.Duration
	// KeepAlive is the container keep-alive horizon (default 10 min).
	KeepAlive time.Duration
	// MeanInterArrival reports a function's observed mean request gap, if
	// known. The simulator maintains it as an EWMA over arrivals; sharing
	// policies use it to judge whether an idle container's owner is likely
	// to return (§4.2's idle identification enriched with the demand
	// prediction the inter-function sharing systems rely on).
	MeanInterArrival func(fn string) (time.Duration, bool)

	// loads memoizes ModelLoad per graph (*model.Graph → time.Duration).
	loads sync.Map
}

// ModelLoad returns the latency of loading g from scratch under Profile,
// memoized per graph: graphs are immutable once deployed, and Profile must
// not change after the first call. Safe for concurrent use.
func (e *Env) ModelLoad(g *model.Graph) time.Duration {
	if d, ok := e.loads.Load(g); ok {
		return d.(time.Duration)
	}
	d := e.Profile.ModelLoad(g).Total()
	e.loads.Store(g, d)
	return d
}

// GrantFor returns the memory grant a fresh container for fn receives under
// the current allocation mode.
func (e *Env) GrantFor(fn *Function) int {
	switch e.MemoryMode {
	case MemoryHomogeneous:
		need := e.Profile.MemoryMB(fn.Model)
		if need > e.ContainerMemoryMB {
			// Oversized models get an enlarged grant (the operator sizes up);
			// everything else gets the uniform allocation.
			return need
		}
		return e.ContainerMemoryMB
	case MemoryFineGrained:
		return e.Profile.MemoryMB(fn.Model)
	default:
		return 0
	}
}

// Policy decides how to serve a request on a node. ok=false means the node
// cannot serve now (every container busy and no room) and the request queues.
//
// Serve may be called concurrently, with the same Env, for nodes in
// different groups: Run and RunWindowed replay node groups that share no
// function on parallel goroutines. It must not change state shared between
// calls (a memo, a counter, an RNG), or records would vary from run to run.
type Policy interface {
	Name() string
	Serve(env *Env, n *Node, fn *Function, now time.Duration) (Decision, bool)
}
