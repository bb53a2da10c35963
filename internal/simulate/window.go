package simulate

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// This file implements time-windowed optimistic parallel replay: the trace
// streams through fixed time windows, and inside each window the arriving
// (and queued) functions' candidate node sets are partitioned by union-find.
// Functions in different partitions cannot observe each other's state within
// the window — routing, queueing, repurposing and completions all stay on a
// partition's own nodes — so the partitions replay concurrently on workers
// sharing the real cluster state with disjoint write sets. No globally
// disjoint placement is needed: overlap only costs parallelism in the
// windows where the overlapping functions are simultaneously active, which
// are detected at the window boundary and replayed serially on the
// authoritative engine.
//
// Why a window partition is exact, not just race-free:
//
//   - A function active (arriving or queued) in partition P has all its
//     candidate nodes in P, so its routing reads, container mutations and
//     EWMA updates happen only under P's worker.
//   - A container always lives on a node in its current function's candidate
//     set, so a container of an active function is only reachable from its
//     own partition; containers of inactive functions are read (by the
//     repurposing eligibility test) but never written this window.
//   - Under the serial-fallback preconditions (no faults, no online
//     profiling, no fan-out, no health tracking) pending engine events are
//     all evComplete, which touch only their own node; events on nodes no
//     partition owns are deferred — each node still observes its events and
//     arrivals in timestamp order, which is the only order that matters.
//   - At equal timestamps arrivals fire before engine events within a
//     window, exactly as in Run/RunStream; events at or past the window
//     boundary stay pending so a later window's earlier arrivals cannot be
//     overtaken.
//
// Config.CrossCheckWindows keeps a second, fully serial simulator in
// lockstep and compares the per-window record multisets, panicking on the
// first divergence — the same oracle pattern as Config.CrossCheckRouting.
//
// Run uses the same machinery with one window over the whole trace: the
// partition unions every resolved function's candidate nodes once, so it
// covers every arrival, queue and container, and runGroups replays each group
// on a forked worker. Placements that give each function one node (the
// paper's load balancer, HashPlacement) or disjoint node groups split into
// many groups; windows are only needed where bridge functions join them.

// WindowReport describes how RunWindowed executed.
type WindowReport struct {
	// Windows counts non-empty windows processed; ParallelWindows of them
	// split into 2+ partitions, ConflictWindows were replayed serially
	// because cross-partition placement conflicts merged everything active
	// into one group.
	Windows         int
	ParallelWindows int
	ConflictWindows int
	// MaxGroups is the largest per-window partition count observed.
	MaxGroups int
	// Workers bounds concurrently running partition workers.
	Workers int
	// SerialReason is empty when windowed replay ran; otherwise it names the
	// coupling that forced the whole run onto the serial streaming path.
	SerialReason string
	// TransformsVerified and TransformsFailed aggregate across workers.
	TransformsVerified int
	TransformsFailed   int
}

// Windowed reports whether the replay actually ran the windowed engine.
func (r WindowReport) Windowed() bool { return r.SerialReason == "" }

// windowCorruptHook, when non-nil, runs after each parallel partition worker
// finishes its window, before results merge — a test-only seam that lets the
// oracle-divergence tests corrupt one partition's state and prove the
// cross-check fails loudly instead of silently agreeing.
var windowCorruptHook func(window, group int, w *Simulator)

// windowSerialReason names the coupling that makes request outcomes depend
// on global order, not just per-group order, or "" when replaying node groups
// on separate workers is exact. It gates both RunWindowed and Run's
// group-parallel path.
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

// forkWorker builds a partition worker: it shares the authoritative
// simulator's cluster state (nodes, function runtimes, ordinals, estimator,
// plan cache, supervision) and owns only its clock, event heap and
// collector. Safe only under the windowSerialReason preconditions, where the
// shared pieces are either immutable this window, mutex-protected and
// decision-neutral, or partition-local by the window-partition argument.
func (s *Simulator) forkWorker() *Simulator {
	return &Simulator{
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
}

// recordLess is a total order over records (every field), giving the
// cross-check oracle a canonical multiset ordering.
func recordLess(a, b metrics.Record) bool {
	switch {
	case a.Start != b.Start:
		return a.Start < b.Start
	case a.Arrival != b.Arrival:
		return a.Arrival < b.Arrival
	case a.Function != b.Function:
		return a.Function < b.Function
	case a.End != b.End:
		return a.End < b.End
	case a.Kind != b.Kind:
		return a.Kind < b.Kind
	case a.Wait != b.Wait:
		return a.Wait < b.Wait
	case a.Init != b.Init:
		return a.Init < b.Init
	case a.Load != b.Load:
		return a.Load < b.Load
	case a.Compute != b.Compute:
		return a.Compute < b.Compute
	default:
		return a.Retries < b.Retries
	}
}

// checkWindowRecords compares a window's record multisets from the windowed
// engine and the serial oracle, panicking on the first divergence.
func checkWindowRecords(window int, got, want []metrics.Record) {
	fail := func(detail string) {
		//optimus:allow panicpath — cross-check oracle: windowed replay diverged from the serial engine
		panic(fmt.Sprintf("simulate: windowed replay divergence in window %d: %s", window, detail))
	}
	if len(got) != len(want) {
		fail(fmt.Sprintf("windowed produced %d records, serial oracle %d", len(got), len(want)))
	}
	g := append([]metrics.Record(nil), got...)
	w := append([]metrics.Record(nil), want...)
	sort.Slice(g, func(i, j int) bool { return recordLess(g[i], g[j]) })
	sort.Slice(w, func(i, j int) bool { return recordLess(w[i], w[j]) })
	for i := range g {
		if g[i] != w[i] {
			fail(fmt.Sprintf("record %d: windowed %+v, serial oracle %+v", i, g[i], w[i]))
		}
	}
}

// RunWindowed replays requests pulled lazily from src through `windows` time
// windows over the given horizon, speculating across partitions inside each
// window on up to `workers` goroutines (<= 0 means GOMAXPROCS) and replaying
// conflicted windows serially. Results are exactly the serial engine's: the
// returned summary equals RunStream's on the same source. When the
// configuration couples requests globally (see WindowReport.SerialReason)
// the whole run falls back to serial streaming replay.
func RunWindowed(cfg Config, fns []*Function, src workload.Cursor, duration time.Duration, windows, workers int) (*metrics.Summary, WindowReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dcfg := cfg.withDefaults()
	report := WindowReport{Workers: workers}
	switch reason := windowSerialReason(dcfg); {
	case duration <= 0:
		report.SerialReason = "no horizon"
	case reason != "":
		report.SerialReason = reason
	case windows < 2:
		report.SerialReason = "fewer than two windows"
	case workers == 1:
		report.SerialReason = "workers=1"
	case dcfg.Nodes < 2:
		report.SerialReason = "single node"
	}
	if report.SerialReason != "" {
		sim := New(cfg, fns)
		sum, err := sim.RunStream(src)
		report.TransformsVerified = sim.TransformsVerified
		report.TransformsFailed = sim.TransformsFailed
		return sum, report, err
	}

	s := New(cfg, fns)
	if !s.cfg.RouteScan || s.cfg.CrossCheckRouting {
		s.enableIndex()
	}
	sum := &metrics.Summary{}
	crossCheck := s.cfg.CrossCheckWindows
	var oracle *Simulator
	if crossCheck {
		// The oracle replays the same windows on its own serial simulator;
		// both collectors retain records so per-window deltas can be
		// compared. Debug/test mode: it pays the serial run's full cost.
		oracle = New(cfg, fns)
		if !oracle.cfg.RouteScan || oracle.cfg.CrossCheckRouting {
			oracle.enableIndex()
		}
	} else {
		s.collector.StreamInto(sum)
	}

	pending, ok := src.Next()
	var last time.Duration
	var arr []arrival
	sLast, oLast := 0, 0 // collector high-water marks (cross-check mode)
	for wi := 0; wi < windows && ok; wi++ {
		final := wi == windows-1
		end := duration * time.Duration(wi+1) / time.Duration(windows)
		arr = arr[:0]
		for ok && (final || pending.At < end) {
			if pending.At < last {
				return nil, report, fmt.Errorf("simulate: stream out of order: %v after %v", pending.At, last)
			}
			last = pending.At
			fr, known := s.resolve(pending.Function)
			if !known {
				return nil, report, fmt.Errorf("simulate: trace references unknown function %q", pending.Function)
			}
			arr = append(arr, arrival{at: pending.At, fr: fr})
			pending, ok = src.Next()
		}
		if len(arr) == 0 {
			continue
		}
		report.Windows++

		groups, nodeGroup := windowPartition(s, arr)
		if groups > 1 {
			report.ParallelWindows++
			if groups > report.MaxGroups {
				report.MaxGroups = groups
			}
			s.runWindowParallel(arr, end, final, groups, nodeGroup, workers, wi, crossCheck, sum)
		} else {
			report.ConflictWindows++
			s.runWindow(arr, end, final)
		}

		if crossCheck {
			oArr := make([]arrival, len(arr))
			for i, a := range arr {
				fr, _ := oracle.resolve(a.fr.fn.Name)
				oArr[i] = arrival{at: a.at, fr: fr}
			}
			oracle.runWindow(oArr, end, final)
			gotRecs := s.collector.Records()[sLast:]
			wantRecs := oracle.collector.Records()[oLast:]
			checkWindowRecords(wi, gotRecs, wantRecs)
			sLast = s.collector.Len()
			oLast = oracle.collector.Len()
		}
	}
	// Trailing completions past the last non-empty window (or past an early
	// cursor exhaustion) drain serially.
	s.runWindow(nil, 0, true)
	if crossCheck {
		oracle.runWindow(nil, 0, true)
		checkWindowRecords(windows, s.collector.Records()[sLast:], oracle.collector.Records()[oLast:])
		for _, r := range s.collector.Records() {
			sum.Observe(r)
		}
	}
	sum.Faults.Merge(s.collector.Faults)
	sum.Fanout.Merge(s.collector.Fanout)
	report.TransformsVerified += s.TransformsVerified
	report.TransformsFailed += s.TransformsFailed
	return sum, report, nil
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

// add joins fr's candidate nodes into one group.
func (u nodeUnion) add(fr *fnRuntime) {
	first := fr.cands[0].ID
	u.touched[first] = true
	for _, n := range fr.cands[1:] {
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

// windowPartition partitions the nodes by the candidate sets of every active
// (arriving or queued) function of one window. Nodes no active function can
// reach stay at -1: their pending events defer to a later window.
func windowPartition(s *Simulator, arr []arrival) (groups int, nodeGroup []int) {
	u := newNodeUnion(len(s.nodes))
	seen := make(map[*fnRuntime]bool, 64)
	for _, a := range arr {
		if !seen[a.fr] {
			seen[a.fr] = true
			u.add(a.fr)
		}
	}
	// A queued function's drains touch its runtime and nodes exactly like
	// arrivals do, so it partitions as if it arrived.
	for _, n := range s.nodes {
		for _, q := range n.queue {
			if !seen[q.fr] {
				seen[q.fr] = true
				u.add(q.fr)
			}
		}
	}
	return u.groups()
}

// replayGroups partitions the nodes for Run by the candidate sets of every
// function resolved so far, which covers the trace and whatever containers
// and queues an earlier Run left behind. It reports 0 groups, keeping Run on
// one goroutine, when windowSerialReason finds a coupling or the plan cache
// is bounded: a shared LRU's evictions, and so its hit and miss counts,
// would depend on how the workers interleave.
func (s *Simulator) replayGroups() (groups int, nodeGroup []int) {
	if windowSerialReason(s.cfg) != "" || s.cfg.PlanCacheMax != 0 {
		return 0, nil
	}
	u := newNodeUnion(len(s.nodes))
	for _, fr := range s.fnRt {
		u.add(fr) // unions commute: the partition is independent of map order
	}
	return u.groups()
}

// runWindowParallel replays one window across partition workers and merges
// the results back deterministically (partitions in min-node order).
func (s *Simulator) runWindowParallel(arr []arrival, end time.Duration, final bool, groups int, nodeGroup []int, workers, wi int, crossCheck bool, sum *metrics.Summary) {
	for g, w := range s.runGroups(arr, end, final, groups, nodeGroup, workers) {
		if windowCorruptHook != nil {
			windowCorruptHook(wi, g, w)
		}
		for _, r := range w.collector.Records() {
			if crossCheck {
				s.collector.Add(r)
			} else {
				sum.Observe(r)
			}
		}
	}
}

// WorkerPanic is the value Run and RunWindowed panic with when a group
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
// order; each worker's collector holds its group's records in serial order.
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
