package simulate

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// This file implements group-parallel replay. The candidate node sets of
// every registered function are joined by union-find into groups of nodes,
// and each group replays on its own worker, sharing the real cluster state
// with the others but with disjoint write sets. Run and RunStream fork the
// workers once per call and keep them, with their event heaps and
// collectors, across chunks.
//
// Why a group partition is exact, not just race-free:
//
//   - Every function has all its candidate nodes in one group, so its
//     routing reads, container mutations and EWMA updates happen only under
//     that group's worker.
//   - A container always lives on a node in its current function's candidate
//     set, so it is only reachable from its own group.
//   - Under the groupSerialReason preconditions (no faults, no online
//     profiling, no fan-out, no health tracking) pending engine events are
//     all evComplete, which touch only their own node; events on nodes no
//     group owns stay with the caller. Each node still observes its events
//     and arrivals in timestamp order, which is the only order that matters.
//   - Each worker runs the serial loop, runChunk, over its group's share of
//     each chunk's arrivals: at equal timestamps arrivals fire before engine
//     events, and events at or past a chunk's limit stay pending, so the next
//     chunk's arrivals at that instant still fire first.
//
// Placements that give each function one node (the paper's load balancer,
// HashPlacement) or disjoint node groups split into many groups; a function
// whose candidates span two groups joins them.

// groupSerialReason names the coupling that makes request outcomes depend on
// global order, not just per-group order, or "" when replaying node groups on
// separate workers is exact. replayGroups applies it.
func groupSerialReason(cfg Config) string {
	switch {
	case cfg.Faults.Enabled():
		return "fault injection draws from one global random stream"
	case cfg.OnlineProfiling > 0:
		return "online profiling couples the cost estimator across all requests"
	case cfg.Fanout.Enabled:
		return "fan-out places replicas across all nodes"
	case cfg.Health.Enabled:
		return "health tracking couples the cluster latency baseline across all nodes"
	}
	return ""
}

// forkWorker builds a group worker. It shares the authoritative simulator's
// cluster state (workerShared) and owns its clock, event heap, collector
// (keeping records when s's does) and fault injector (workerOwned). Safe only
// under the groupSerialReason preconditions, where the shared pieces are
// either immutable during the replay, mutex-protected and decision-neutral,
// or group-local by the partition argument above.
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
	w.collector.KeepRecords = s.collector.KeepRecords
	return w
}

// workerShared and workerOwned list every Simulator field by how forkWorker
// treats it: shared with the authoritative simulator (cfg is copied, idxOn
// mirrored), or owned by the worker and folded back by joinGroups. A test
// requires every field to be on exactly one list.
var (
	workerShared = []string{"cfg", "env", "nodes", "fns", "fnRt", "ords", "idxOn", "est",
		"watchdog", "breaker", "health", "backoff", "hedger"}
	workerOwned = []string{"clock", "events", "seq", "collector", "TransformsVerified", "inj",
		"TransformsFailed", "fanouts", "fanoutLog"}
)

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

// replayGroups partitions the nodes by the candidate sets of every
// registered function and every function resolved so far, which covers any
// trace and whatever containers and queues an earlier replay left behind.
// It builds the registered functions' runtimes in name order, so the
// replay's resolves find them (and ordinals do not depend on map order). It
// reports 0 groups, keeping the replay on one goroutine, when
// groupSerialReason finds a coupling or the plan cache is bounded: a shared
// LRU's evictions, and so its hit and miss counts, would depend on how the
// workers interleave.
func (s *Simulator) replayGroups() (groups int, nodeGroup []int) {
	if groupSerialReason(s.cfg) != "" || s.cfg.PlanCacheMax != 0 {
		return 0, nil
	}
	names := make([]string, 0, len(s.fns))
	for name := range s.fns {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		s.rt(s.fns[name])
	}
	u := newNodeUnion(len(s.nodes))
	for _, fr := range s.fnRt {
		u.add(fr.cands) // unions commute: the partition is independent of map order
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

// forkGroups forks one worker per group and hands each the pending events
// of its group's nodes, in their (at, seq) order. Events on nodes no group
// owns (or of kinds the partition argument doesn't cover — impossible under
// the preconditions, but guarded) stay on s.
func (s *Simulator) forkGroups(groups int, nodeGroup []int) []*Simulator {
	ws := make([]*Simulator, groups)
	for g := range ws {
		ws[g] = s.forkWorker()
	}
	var deferred []event
	for s.events.len() > 0 {
		ev := s.events.pop()
		if ev.kind == evComplete && ev.node != nil && nodeGroup[ev.node.ID] >= 0 {
			ws[nodeGroup[ev.node.ID]].schedule(ev)
		} else {
			deferred = append(deferred, ev)
		}
	}
	for _, ev := range deferred {
		s.schedule(ev)
	}
	return ws
}

// runGroups replays one chunk on the group workers: worker g runs
// arrivals[g], its group's share in trace order, firing events before limit
// (all of them when final). Up to `workers` groups run at once, the one with
// the most arrivals first. A worker's panic is re-raised here, as a
// *WorkerPanic carrying the worker's stack, once every worker has stopped.
func runGroups(ws []*Simulator, arrivals [][]arrival, limit time.Duration, final bool, workers int) {
	order := make([]int, len(ws))
	for g := range order {
		order[g] = g
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(arrivals[b]), len(arrivals[a])) })
	queue := make(chan int, len(ws))
	for _, g := range order {
		queue <- g
	}
	close(queue)
	panics := make([]any, len(ws))
	var wg sync.WaitGroup
	for i := 0; i < min(workers, len(ws)); i++ {
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
					ws[g].runChunk(arrivals[g], limit, final)
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
}

// joinGroups folds the workers back into s: their leftover events re-enter
// s's heap in worker (at, seq) order, their collectors merge into s's
// (records by Start, equal Starts by group, lowest node ID first), their
// transform tallies add, and s's clock becomes the latest clock.
func (s *Simulator) joinGroups(ws []*Simulator) {
	cols := make([]*metrics.Collector, len(ws))
	for g, w := range ws {
		for w.events.len() > 0 {
			s.schedule(w.events.pop())
		}
		s.TransformsVerified += w.TransformsVerified
		s.TransformsFailed += w.TransformsFailed
		s.clock = max(s.clock, w.clock)
		cols[g] = &w.collector
	}
	s.collector.Merge(cols...)
}
