package simulate

import (
	"cmp"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// This file implements group-parallel replay. The candidate node sets of the
// functions a replay may meet are joined by union-find into groups of nodes,
// and each group replays on its own worker, sharing the real cluster state
// with the others but with disjoint write sets. Run partitions by the
// functions its trace resolves; RunStream, which cannot see its trace ahead,
// by every registered function.
//
// Why a group partition is exact, not just race-free:
//
//   - Every function has all its candidate nodes in one group, so its
//     routing reads, container mutations and EWMA updates happen only under
//     that group's worker.
//   - A container always lives on a node in its current function's candidate
//     set, so it is only reachable from its own group.
//   - Under the windowSerialReason preconditions (no faults, no online
//     profiling, no fan-out, no health tracking) pending engine events are
//     all evComplete, which touch only their own node; events on nodes no
//     group owns stay with the caller. Each node still observes its events
//     and arrivals in timestamp order, which is the only order that matters.
//   - Each worker runs the serial loop, runWindow, over its group's share of
//     the arrivals: at equal timestamps arrivals fire before engine events,
//     and events at or past a chunk's limit stay pending, so the next
//     chunk's arrivals at that instant still fire first.
//
// Placements that give each function one node (the paper's load balancer,
// HashPlacement) or disjoint node groups split into many groups; a function
// whose candidates span two groups joins them.

// windowSerialReason names the coupling that makes request outcomes depend
// on global order, not just per-group order, or "" when replaying node groups
// on separate workers is exact. replayGroups applies it for Run and
// RunStream.
func windowSerialReason(cfg Config) string {
	switch {
	case cfg.Faults.Enabled():
		return "fault injection draws from one global random stream"
	case cfg.OnlineProfiling > 0:
		return "online profiling couples the cost estimator across all requests"
	case cfg.Fanout.Enabled:
		return "fan-out trees place replicas across all nodes"
	case cfg.Health.Enabled:
		return "health tracking couples the cluster latency baseline across all nodes"
	}
	return ""
}

// forkWorker builds a group worker: it shares the authoritative simulator's
// cluster state (nodes, function runtimes, ordinals, estimator, plan cache,
// supervision) and owns only its clock, event heap and collector, which
// streams into a summary of its own when s's does. Safe only under the
// windowSerialReason preconditions, where the shared pieces are either
// immutable during the replay, mutex-protected and decision-neutral, or
// group-local by the partition argument above.
func (s *Simulator) forkWorker() *Simulator {
	w := &Simulator{
		cfg:      s.cfg,
		env:      s.env,
		nodes:    s.nodes,
		fns:      s.fns,
		fnRt:     s.fnRt,
		ords:     s.ords,
		est:      s.est,
		idxOn:    s.idxOn,
		inj:      faults.New(s.cfg.Seed^0x5f3759df, s.cfg.Faults),
		watchdog: s.watchdog,
		breaker:  s.breaker,
		health:   s.health,
		backoff:  s.backoff,
		hedger:   s.hedger,
	}
	if s.collector.Stream() != nil {
		w.collector.StreamInto(&metrics.Summary{})
	}
	return w
}

// nodeUnion is a union-find over node IDs that joins the candidate nodes of
// every function added to it.
type nodeUnion struct {
	parent  []int
	touched []bool
}

func newNodeUnion(nodes int) nodeUnion {
	u := nodeUnion{parent: make([]int, nodes), touched: make([]bool, nodes)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u nodeUnion) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// add joins a function's candidate nodes into one group.
func (u nodeUnion) add(cands []*Node) {
	first := cands[0].ID
	u.touched[first] = true
	for _, n := range cands[1:] {
		u.touched[n.ID] = true
		u.parent[u.find(first)] = u.find(n.ID)
	}
}

// groups labels each node with its group, numbering groups by the smallest
// node ID each holds. Nodes no added function reaches stay at -1.
func (u nodeUnion) groups() (groups int, nodeGroup []int) {
	nodeGroup = make([]int, len(u.parent))
	label := make([]int, len(u.parent)) // root → group+1
	for id := range nodeGroup {
		nodeGroup[id] = -1
		if !u.touched[id] {
			continue
		}
		r := u.find(id)
		if label[r] == 0 {
			groups++
			label[r] = groups
		}
		nodeGroup[id] = label[r] - 1
	}
	return groups, nodeGroup
}

// replayGroups partitions the nodes by the candidate sets of every function
// resolved so far, which covers Run's trace and whatever containers and
// queues an earlier replay left behind, and, when registered is set, of
// every registered function: RunStream cannot see its trace ahead, and it
// reads their placement without building runtimes, so ordinals are still
// assigned in arrival order. It reports 0 groups, keeping the replay on one
// goroutine, when windowSerialReason finds a coupling or the plan cache is
// bounded: a shared LRU's evictions, and so its hit and miss counts, would
// depend on how the workers interleave.
func (s *Simulator) replayGroups(registered bool) (groups int, nodeGroup []int) {
	if windowSerialReason(s.cfg) != "" || s.cfg.PlanCacheMax != 0 {
		return 0, nil
	}
	u := newNodeUnion(len(s.nodes))
	for _, fr := range s.fnRt {
		u.add(fr.cands) // unions commute: the partition is independent of map order
	}
	if registered {
		for name := range s.fns {
			u.add(s.resolveCandidates(name))
		}
	}
	return u.groups()
}

// WorkerPanic is the value Run and RunStream panic with when a group
// worker panicked: the worker's own panic value and the worker goroutine's
// stack at the panic, which re-raising on the caller's goroutine would
// otherwise lose.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("simulate: group worker panicked: %v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// runGroups replays arrivals and pending events split by group, firing events
// before limit (all of them when final), and returns the workers in group
// order; each worker's collector holds its group's records in serial order
// (or, when s streams, they are merged into s's summary).
// Every group gets a forked worker with the pending events of its nodes and
// its arrivals, in their original order. Up to `workers` groups run at once,
// the one with the most arrivals first. Afterwards the workers' leftover
// events (in group order) and then the events on nodes no group owns are
// back on s's heap, their fault, fan-out and transform tallies are folded
// into s, and s's clock is the latest worker clock (arr must be non-empty, so
// some worker fires). A worker's panic is re-raised here, as a *WorkerPanic
// carrying the worker's stack, once every worker has stopped.
func (s *Simulator) runGroups(arr []arrival, limit time.Duration, final bool, groups int, nodeGroup []int, workers int) []*Simulator {
	ws := make([]*Simulator, groups)
	for g := range ws {
		ws[g] = s.forkWorker()
	}
	// Pending events go to the worker of their node's group; events on
	// unowned nodes (or of kinds the partition argument doesn't cover —
	// impossible under the preconditions, but guarded) stay with s.
	var deferred []event
	for s.events.len() > 0 {
		ev := s.events.pop()
		g := -1
		if ev.kind == evComplete && ev.node != nil {
			g = nodeGroup[ev.node.ID]
		}
		if g < 0 {
			deferred = append(deferred, ev)
			continue
		}
		ws[g].schedule(ev)
	}
	// Each group keeps its arrivals in their original order.
	counts := make([]int, groups)
	for _, a := range arr {
		counts[nodeGroup[a.fr.cands[0].ID]]++
	}
	perGroup := make([][]arrival, groups)
	for g := range perGroup {
		perGroup[g] = make([]arrival, 0, counts[g])
	}
	for _, a := range arr {
		g := nodeGroup[a.fr.cands[0].ID]
		perGroup[g] = append(perGroup[g], a)
	}

	order := make([]int, groups)
	for g := range order {
		order[g] = g
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(perGroup[b]), len(perGroup[a])) })
	queue := make(chan int, groups)
	for _, g := range order {
		queue <- g
	}
	close(queue)
	panics := make([]any, groups)
	var wg sync.WaitGroup
	for i := 0; i < min(workers, groups); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range queue {
				func() {
					defer func() {
						if p := recover(); p != nil {
							panics[g] = &WorkerPanic{Value: p, Stack: debug.Stack()}
						}
					}()
					w := ws[g]
					w.collector.Reserve(len(perGroup[g]))
					w.runWindow(perGroup[g], limit, final)
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			//optimus:allow panicpath — re-raises a group worker's panic on the caller's goroutine
			panic(p)
		}
	}

	for _, w := range ws {
		// Leftover worker events re-enter the authoritative heap in worker
		// (at, seq) order; deferred unowned events follow, also in order.
		for w.events.len() > 0 {
			s.schedule(w.events.pop())
		}
		if sum := s.collector.Stream(); sum != nil {
			sum.Merge(w.collector.Stream())
		}
		s.collector.Faults.Merge(w.collector.Faults)
		s.collector.Fanout.Merge(w.collector.Fanout)
		s.TransformsVerified += w.TransformsVerified
		s.TransformsFailed += w.TransformsFailed
	}
	s.clock = slices.MaxFunc(ws, func(a, b *Simulator) int { return cmp.Compare(a.clock, b.clock) }).clock
	for _, ev := range deferred {
		s.schedule(ev)
	}
	return ws
}

// mergeRecords appends the group workers' records to s's collector ordered
// by Start, equal Starts by group (lowest node ID first). Each worker's
// records are already in Start order, so this is a k-way merge that copies,
// at each step, the run of records the earliest group holds before any other
// group's next record.
func (s *Simulator) mergeRecords(ws []*Simulator) {
	heads := make([][]metrics.Record, 0, len(ws))
	for _, w := range ws {
		if recs := w.collector.Records(); len(recs) > 0 {
			heads = append(heads, recs)
		}
	}
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if heads[i][0].Start < heads[best][0].Start {
				best = i
			}
		}
		// The run stops at the other groups' earliest Start: before it when
		// the lowest group holding that Start precedes best, after it
		// otherwise.
		limit, lowerAtLimit := time.Duration(math.MaxInt64), false
		for i, h := range heads {
			if i != best && h[0].Start < limit {
				limit, lowerAtLimit = h[0].Start, i < best
			}
		}
		recs := heads[best]
		n := 1
		for n < len(recs) && (recs[n].Start < limit || recs[n].Start == limit && !lowerAtLimit) {
			n++
		}
		for _, r := range recs[:n] {
			s.collector.Add(r)
		}
		if heads[best] = recs[n:]; len(heads[best]) == 0 {
			heads = slices.Delete(heads, best, best+1)
		}
	}
}
