package simulate

// This file drives fault-tolerant fan-out (package fanout) inside the
// trace-replay engine: a deep per-node queue for a function triggers one wave
// of replica builds, each streaming its weights from one of the function's
// warm containers (the seeds).
//
// The two phases of a replica build are pipelined: the recipient-local
// structure load (sandbox init + graph instantiation) runs without holding
// any donor, and only the weights stream occupies one of the seed node's
// bounded outbound donation slots. Phase costs come straight from the cost
// profile's load breakdown, so fan-out's economics match the transform
// economics everywhere else in the simulator.
//
// A building replica's container is held busy for the whole build (one long
// horizon instead of per-phase BusyUntil rewrites): the router never sees a
// structure-only container as warm, same-timestamp arrivals cannot grab it at
// a phase boundary, and eviction cannot reclaim it. The hold is released at
// completion by re-keying the index's busy-end transition to the completion
// instant, after which the replica idles into service exactly like any other
// completed container.
//
// Every event carries the member generation it was scheduled under;
// re-parenting, cancellation and teardown bump the generation, so stale
// completions and crashes die at fire time without event-heap surgery. All
// scheduling decisions iterate nodes and members in deterministic order — a
// fixed seed reproduces the exact same schedule, faults included.

import (
	"sort"
	"time"

	"repro/internal/fanout"
	"repro/internal/faults"
)

// fanoutBuildHold is the busy horizon a building replica's container is held
// under. It only needs to outlast the build (structure load, donor waits,
// weights stream or fallback, including re-parenting detours); completion
// cuts it to the actual finish time, and teardown removes the container, so
// the horizon itself never fires a transition.
const fanoutBuildHold = 24 * time.Hour

// fanoutRun couples one fan-out with its engine-side state.
type fanoutRun struct {
	tree *fanout.Tree
	fr   *fnRuntime
	// ctrs and home map member ID → container and hosting node (seeds
	// included). Containers lost outside the fan-out paths (outages, crashes,
	// eviction, repurposing) are detected lazily and reconciled on the next
	// pump.
	ctrs map[int]*Container
	home map[int]*Node
	// gens invalidates scheduled events: each member's live event carries the
	// generation it was scheduled under, and any reschedule or teardown bumps
	// it so the stale event is dropped at fire time.
	gens map[int]int
	// Phase costs from the profile's load breakdown: structDur is the
	// recipient-local phase (sandbox init + graph structure), weightsDur the
	// donor-occupying weights stream, and fallbackDur the from-scratch load a
	// diverted child pays (structure already built, so deserialize + assign).
	structDur, weightsDur, fallbackDur time.Duration
	merged                             bool
}

// maybeFanout triggers a fan-out when the node's queue for fn crosses the
// configured threshold and the cluster holds at least one seedable warm
// container — there is nothing to replicate from otherwise, and a later
// arrival retries once the first cold start completes.
func (s *Simulator) maybeFanout(node *Node, fr *fnRuntime) {
	if s.fanouts[fr.fn.Name] != nil {
		return // one active fan-out per function
	}
	depth := 0
	for _, q := range node.queue {
		if q.fr == fr {
			depth++
		}
	}
	if depth < s.cfg.Fanout.Threshold {
		return
	}
	run := &fanoutRun{
		fr:   fr,
		ctrs: make(map[int]*Container),
		home: make(map[int]*Node),
		gens: make(map[int]int),
	}
	b := s.env.Profile.ModelLoad(fr.fn.Model)
	run.structDur = s.env.Profile.SandboxInit + b.Structure
	run.weightsDur = b.Weights
	run.fallbackDur = b.Deserialize + b.Weights
	// Size the fan-out to what the cluster can actually hold right now: a
	// target beyond placeable capacity would leave it waiting forever for
	// slots that never free.
	grant := s.env.GrantFor(fr.fn)
	want := 0
	for _, n := range s.nodes {
		if !s.unroutable(n, s.clock) {
			want += fanoutCapacity(n, s.clock, grant, fr.fn)
		}
	}
	if want > s.cfg.Fanout.MaxRecipients {
		want = s.cfg.Fanout.MaxRecipients
	}
	if want <= 0 {
		return
	}
	run.tree = fanout.New(s.cfg.Fanout, fr.fn.Name, want, s.clock)
	for _, n := range s.nodes {
		if n.Down(s.clock) {
			continue
		}
		for _, c := range n.Containers {
			// A busy container that has never completed a request is mid cold
			// start: its model is not loaded yet, so it cannot seed the tree.
			if c.Fn == fr.fn && !c.dead && (!c.Busy(s.clock) || c.LastDone > c.Created) {
				id := run.tree.AddSeed(n.ID)
				run.ctrs[id] = c
				run.home[id] = n
			}
		}
	}
	if len(run.ctrs) == 0 {
		return
	}
	if s.fanouts == nil {
		s.fanouts = make(map[string]*fanoutRun)
	}
	s.fanouts[fr.fn.Name] = run
	s.fanoutLog = append(s.fanoutLog, run)
	s.pumpFanout(run)
}

// fanoutCapacity counts how many fresh recipients a node could host right
// now: free slots plus reclaimable idle containers, bounded by memory in
// memory-aware modes. It is CanPlaceFor's rule with one exclusion: idle
// containers already holding the fan-out's function never count as
// reclaimable. Counting them would let a capacity-bound fan-out place
// recipients by evicting its own seeds and warm replicas — churn that
// destroys exactly the warmth it builds. Since LRU eviction consumes the
// oldest idle containers first and the fan-out's members go idle last (they
// complete after the trigger), placements gated on this count reclaim
// foreign idle containers and leave the fan-out intact. An over-committed
// memory-aware node hosts nothing, whatever the grant.
func fanoutCapacity(n *Node, now time.Duration, memMB int, fn *Function) int {
	slots := n.Capacity - len(n.Containers)
	free := 0
	if n.MemoryMB > 0 {
		free = n.MemoryMB - n.UsedMB()
	}
	for _, c := range n.Containers {
		if !c.Busy(now) && c.Fn != fn {
			slots++
			free += c.MemMB
		}
	}
	if slots < 0 || (n.MemoryMB > 0 && free < 0) {
		return 0
	}
	if n.MemoryMB > 0 && memMB > 0 {
		return min(slots, free/memMB)
	}
	return slots
}

// fanoutAlive reports whether a member's container still resides on its node
// holding fn's model — the liveness test behind donor eligibility and
// reconciliation. Eviction removes a container without marking it dead, so
// residency is checked through the index (or by scanning when routing scans).
func (s *Simulator) fanoutAlive(run *fanoutRun, member int) bool {
	c := run.ctrs[member]
	if c == nil || c.dead || c.Fn != run.fr.fn {
		return false
	}
	if s.idxOn {
		return c.idxState != idxNone
	}
	for _, x := range run.home[member].Containers {
		if x == c {
			return true
		}
	}
	return false
}

// fanoutEligible is the donor-eligibility check handed to the tree: the
// donor's container must be alive and its node routable — down and
// health-avoided nodes donate nothing, steering donor scheduling exactly like
// request routing.
func (s *Simulator) fanoutEligible(run *fanoutRun) func(member, node int) bool {
	return func(member, nodeID int) bool {
		return s.fanoutAlive(run, member) && !s.unroutable(s.nodes[nodeID], s.clock)
	}
}

// pumpFanouts advances every active fan-out; called whenever cluster state that
// gates tree progress may have changed (a completion or crash freed capacity,
// an outage wiped members). Iteration is name-sorted so map order never leaks
// into scheduling.
func (s *Simulator) pumpFanouts() {
	if len(s.fanouts) == 0 {
		return
	}
	names := make([]string, 0, len(s.fanouts))
	for n := range s.fanouts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if run := s.fanouts[n]; run != nil {
			s.pumpFanout(run)
		}
	}
}

// pumpFanout advances one fan-out: reconcile lost members, start recipients up
// to the target wherever capacity allows, hand freed donor streams to parked
// children, and divert stranded children to fallback loads.
func (s *Simulator) pumpFanout(run *fanoutRun) {
	if run.tree.Done() {
		return
	}
	s.reconcileFanout(run)
	grant := s.env.GrantFor(run.fr.fn)
	for run.tree.NeedRecipients() > 0 {
		var cands []int
		for _, n := range s.nodes {
			if !s.unroutable(n, s.clock) && fanoutCapacity(n, s.clock, grant, run.fr.fn) > 0 {
				cands = append(cands, n.ID)
			}
		}
		if len(cands) == 0 {
			break // capacity-bound: retried when a completion frees a slot
		}
		child, nodeID, ok := run.tree.StartRecipient(cands)
		if !ok {
			break
		}
		s.startFanoutRecipient(run, child, s.nodes[nodeID])
	}
	for _, a := range run.tree.PumpPending(s.fanoutEligible(run)) {
		s.scheduleDonation(run, a)
	}
	s.fanoutStranded(run)
}

// reconcileFanout retires completed members whose containers were lost
// outside the fan-out paths — node outages, crashes, keep-alive eviction, or
// repurposing to another function — re-parenting any children that were
// streaming from them.
func (s *Simulator) reconcileFanout(run *fanoutRun) {
	for _, m := range run.tree.Members() {
		if m.State != fanout.StateWarm {
			continue
		}
		if s.fanoutAlive(run, m.ID) {
			continue
		}
		run.gens[m.ID]++
		for _, r := range run.tree.MemberLost(m.ID, s.fanoutEligible(run)) {
			// The orphan's completion event for the dead donation is stale
			// whether or not a new donor was found — a parked orphan in
			// particular must not let it fire and fake a warm replica.
			run.gens[r.Child]++
			if r.NewDonor >= 0 {
				s.scheduleDonation(run, fanout.Assignment{
					Child: r.Child, Donor: r.NewDonor, DonorNode: r.NewDonorNode,
				})
			}
		}
	}
}

// fanoutStranded diverts parked children to from-scratch fallbacks when the
// fan-out can no longer produce a donor for them (every seed is dead).
func (s *Simulator) fanoutStranded(run *fanoutRun) {
	alive := func(member, _ int) bool { return s.fanoutAlive(run, member) }
	for _, child := range run.tree.Stranded(alive) {
		s.scheduleFallback(run, child, false)
	}
}

// startFanoutRecipient creates the child's container and schedules its
// recipient-local structure load. The container is held busy under the build
// horizon so routing, eviction and repurposing leave it alone until the
// replica is actually warm.
func (s *Simulator) startFanoutRecipient(run *fanoutRun, child int, node *Node) {
	now := s.clock
	node.expireIndex(now)
	c := node.newContainer(run.fr.fn, s.env.GrantFor(run.fr.fn), now)
	run.ctrs[child] = c
	run.home[child] = node
	c.BusyUntil = now + fanoutBuildHold
	node.noteStartService(c, run.fr.ord)
	end := now + run.structDur
	s.watchdog.Lease(c.ID, end)
	run.gens[child]++
	s.schedule(event{at: end, kind: evFanoutStruct, node: node, c: c,
		fo: run, member: child, gen: run.gens[child]})
}

// fanoutStruct finishes a recipient's structure load: the child asks for a
// seed and either starts its weights stream or parks until one frees.
func (s *Simulator) fanoutStruct(ev event) {
	run := ev.fo
	if ev.gen != run.gens[ev.member] {
		return
	}
	if ev.c.dead {
		run.gens[ev.member]++
		run.tree.RecipientLost(ev.member)
		s.pumpFanout(run)
		return
	}
	if a, ok := run.tree.StructDone(ev.member, s.fanoutEligible(run)); ok {
		s.scheduleDonation(run, a)
		return
	}
	// Parked: the container stays held busy; PumpPending hands it a donor
	// when a stream frees, and the stranded check diverts it to a fallback
	// when no seed is left.
	s.fanoutStranded(run)
}

// scheduleDonation starts streaming weights from the assigned seed. The
// replication pair's circuit breaker ((fn→fn)) may divert the child to a
// fallback load; a donation degraded past the watchdog's virtual-time deadline
// is cancelled up front by the watchdog — only degraded-bandwidth donations
// can breach it, so zero-fault runs never cancel. The FanoutCrash and Corrupt
// faults draw here, at scheduling time, so a fixed seed reproduces the exact
// failure pattern.
func (s *Simulator) scheduleDonation(run *fanoutRun, a fanout.Assignment) {
	now := s.clock
	name := run.fr.fn.Name
	c := run.ctrs[a.Child]
	if c == nil || c.dead {
		run.gens[a.Child]++
		run.tree.RecipientLost(a.Child)
		return
	}
	if !s.breaker.Allow(name, name, now) {
		s.collector.Faults.BreakerShortCircuits++
		s.scheduleFallback(run, a.Child, false)
		return
	}
	w := run.weightsDur
	donorNode := s.nodes[a.DonorNode]
	if donorNode.DegradedBandwidth(now) {
		w = time.Duration(float64(w) * s.cfg.BandwidthFactor)
	}
	if s.watchdog != nil && w > s.watchdog.Deadline(run.weightsDur) {
		s.watchdog.RecordWaveCancel()
		s.scheduleFallback(run, a.Child, true)
		return
	}
	if s.inj.Fire(faults.FanoutCrash) {
		// The seed dies at the stream's midpoint; its orphans (this child
		// and any sibling streams) are re-assigned when the crash fires.
		s.schedule(event{at: now + w/2, kind: evFanoutCrash, node: donorNode,
			c: run.ctrs[a.Donor], fo: run, member: a.Donor, gen: run.gens[a.Donor]})
	}
	corrupt := s.inj.Fire(faults.Corrupt)
	end := now + w
	s.watchdog.Lease(c.ID, end)
	run.gens[a.Child]++
	s.schedule(event{at: end, kind: evFanoutDone, node: run.home[a.Child], c: c,
		fo: run, member: a.Child, gen: run.gens[a.Child], foCorrupt: corrupt})
}

// scheduleFallback diverts a building child to a from-scratch load (open
// breaker, wave-deadline cancel, or no possible donor).
func (s *Simulator) scheduleFallback(run *fanoutRun, child int, waveCancel bool) {
	c := run.ctrs[child]
	if c == nil || c.dead {
		run.gens[child]++
		run.tree.RecipientLost(child)
		return
	}
	run.tree.ToFallback(child, waveCancel)
	end := s.clock + run.fallbackDur
	s.watchdog.Lease(c.ID, end)
	run.gens[child]++
	s.schedule(event{at: end, kind: evFanoutDone, node: run.home[child], c: c,
		fo: run, member: child, gen: run.gens[child]})
}

// fanoutRelease ends a replica's build hold at the current clock: the busy
// transition is re-keyed to now (the hold horizon's timer dies stale) and
// drained, leaving the container in the same busy-end state a normal service
// completion sees.
func (s *Simulator) fanoutRelease(node *Node, c *Container) {
	c.BusyUntil = s.clock
	if node.idx != nil && c.idxState == idxBusy {
		node.idx.timers.push(idxTimer{at: s.clock, c: c})
	}
	node.expireIndex(s.clock)
}

// fanoutDone finishes a child's weights stream or fallback load: the tree
// records the completion and runs the edge-balance check; a corrupt replica
// is torn down before it serves, and a clean one idles into service — its
// first request records a StartFanout, and if its own node has no queued work
// it steals one stranded request for the function from another node's queue,
// turning warmth into goodput.
func (s *Simulator) fanoutDone(ev event) {
	run := ev.fo
	if ev.gen != run.gens[ev.member] {
		return
	}
	run.gens[ev.member]++
	c, node := ev.c, ev.node
	if c.dead {
		run.tree.RecipientLost(ev.member)
		s.pumpFanout(run)
		return
	}
	name := run.fr.fn.Name
	res := run.tree.Complete(ev.member, s.clock, ev.foCorrupt)
	if !res.Completed {
		// The tree refused the completion: the member was re-parented or
		// diverted since this event was scheduled. Drop the event without
		// promoting the container — it is still mid-build.
		return
	}
	if res.Quarantined {
		// The edge-balance check caught a corrupt donation: that is failure
		// evidence on the replication pair, and the replica is destroyed
		// before anything can route onto it.
		s.breaker.RecordFailure(name, name, s.clock)
		s.fanoutDestroy(node, c)
	} else {
		if res.ViaDonation {
			s.breaker.RecordSuccess(name, name)
		}
		c.fanoutFresh = true
		c.fanoutBuilt = true
		// complete() drains the node's queue, lets the replica steal queued
		// work from other nodes, and pumps the tree.
		s.fanoutRelease(node, c)
		s.complete(node, c)
	}
	if res.TreeDone {
		s.mergeFanout(run)
		delete(s.fanouts, name)
	} else {
		s.pumpFanout(run)
	}
}

// fanoutCrash kills a seed midway through a donation: the container is lost
// (any request it was serving is re-dispatched), the node's health takes the
// failure, and each orphaned in-flight child is re-assigned to another seed —
// or parked for the next free stream.
func (s *Simulator) fanoutCrash(ev event) {
	run := ev.fo
	if ev.gen != run.gens[ev.member] {
		return
	}
	run.gens[ev.member]++
	node := ev.node
	name := run.fr.fn.Name
	s.fanoutDestroy(node, ev.c)
	s.health.ObserveFailure(node.ID, s.clock)
	s.breaker.RecordFailure(name, name, s.clock)
	for _, r := range run.tree.DonorLost(ev.member, s.fanoutEligible(run), true) {
		// The orphan's completion event for the dead donation is stale whether
		// or not a new donor was found; bump the generation so it dies at fire
		// time instead of faking a warm replica out of a parked child.
		run.gens[r.Child]++
		if r.NewDonor >= 0 {
			s.scheduleDonation(run, fanout.Assignment{
				Child: r.Child, Donor: r.NewDonor, DonorNode: r.NewDonorNode,
			})
		}
		// Parked orphans stay held busy; PumpPending or the stranded check
		// resolves them.
	}
	s.pumpFanout(run)
}

// fanoutDestroy removes a crashed seed's or a quarantined replica's
// container; a victim serving a request loses it like any other container
// loss (bounded retries).
func (s *Simulator) fanoutDestroy(node *Node, c *Container) {
	if c == nil || c.dead {
		return
	}
	node.expireIndex(s.clock)
	node.Remove(c)
	c.dead = true
	s.watchdog.Expire(c.ID)
	if c.hasServing {
		c.hasServing = false
		if c.crashPending {
			c.crashPending = false
			s.retryOrDrop(c.serving)
		}
	}
}

// fanoutStealInto moves one queued request for the replica's function from
// another node onto the replica's own node and serves it there. Static
// placement may exclude the replica's node from the function's candidate set,
// so the steal serves directly instead of re-dispatching through the router;
// nodes and queues scan in deterministic order.
func (s *Simulator) fanoutStealInto(node *Node, c *Container) {
	if c.dead || c.Busy(s.clock) || len(node.queue) > 0 {
		return
	}
	fr := s.rt(c.Fn)
	for _, n := range s.nodes {
		if n == node || len(n.queue) == 0 {
			continue
		}
		for i, q := range n.queue {
			if q.fr == fr {
				n.queue = append(n.queue[:i], n.queue[i+1:]...)
				s.serveOrQueue(node, fr, q.arrival, q.retries)
				return
			}
		}
	}
}

// mergeFanout folds a fan-out's tallies into the collector exactly once.
func (s *Simulator) mergeFanout(run *fanoutRun) {
	if run.merged {
		return
	}
	run.merged = true
	s.collector.Fanout.Merge(run.tree.Stats())
}
