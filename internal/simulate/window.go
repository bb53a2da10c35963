package simulate

import (
	"fmt"
	"runtime"
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

// windowSerialReason names the coupling that forces RunWindowed onto the
// serial streaming path, or "" when windowed replay is sound. Each coupling
// makes request outcomes depend on global order, not just per-partition
// order.
func windowSerialReason(cfg Config, windows, workers int) string {
	switch {
	case cfg.Faults.Enabled():
		return "fault injection draws from one global random stream"
	case cfg.OnlineProfiling > 0:
		return "online profiling couples the cost estimator across all requests"
	case cfg.Fanout.Enabled:
		return "fan-out trees place replicas across all nodes"
	case cfg.Health.Enabled:
		return "health tracking couples the cluster latency baseline across all nodes"
	case windows < 2:
		return "fewer than two windows"
	case workers == 1:
		return "workers=1"
	case cfg.Nodes < 2:
		return "single node"
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
	if duration <= 0 {
		report.SerialReason = "no horizon"
	} else {
		report.SerialReason = windowSerialReason(dcfg, windows, workers)
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
			fn, known := s.fns[pending.Function]
			if !known {
				return nil, report, fmt.Errorf("simulate: trace references unknown function %q", pending.Function)
			}
			arr = append(arr, arrival{at: pending.At, fr: s.rt(fn)})
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
				oArr[i] = arrival{at: a.at, fr: oracle.rt(oracle.fns[a.fr.fn.Name])}
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

// windowPartition unions every active (arriving or queued) function's
// candidate nodes and labels each node with its partition, ordered by the
// smallest node ID each partition touches. Nodes no active function can
// reach stay at -1: their pending events defer to a later window.
func windowPartition(s *Simulator, arr []arrival) (groups int, nodeGroup []int) {
	parent := make([]int, len(s.nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	touched := make([]bool, len(s.nodes))
	unionFn := func(fr *fnRuntime) {
		first := fr.cands[0].ID
		touched[first] = true
		for _, n := range fr.cands[1:] {
			touched[n.ID] = true
			parent[find(first)] = find(n.ID)
		}
	}
	seen := make(map[*fnRuntime]bool, 64)
	for _, a := range arr {
		if !seen[a.fr] {
			seen[a.fr] = true
			unionFn(a.fr)
		}
	}
	// A queued function's drains touch its runtime and nodes exactly like
	// arrivals do, so it partitions as if it arrived.
	for _, n := range s.nodes {
		for _, q := range n.queue {
			if !seen[q.fr] {
				seen[q.fr] = true
				unionFn(q.fr)
			}
		}
	}
	nodeGroup = make([]int, len(s.nodes))
	rootMin := make(map[int]int)
	for id := range s.nodes {
		nodeGroup[id] = -1
		if touched[id] {
			r := find(id)
			if m, ok := rootMin[r]; !ok || id < m {
				rootMin[r] = id
			}
		}
	}
	mins := make([]int, 0, len(rootMin))
	for _, m := range rootMin {
		mins = append(mins, m)
	}
	sort.Ints(mins)
	groupOfRoot := make(map[int]int, len(mins))
	for gi, m := range mins {
		groupOfRoot[find(m)] = gi
	}
	for id := range s.nodes {
		if touched[id] {
			nodeGroup[id] = groupOfRoot[find(id)]
		}
	}
	return len(mins), nodeGroup
}

// runWindowParallel replays one window across partition workers and merges
// the results back deterministically (partitions in min-node order).
func (s *Simulator) runWindowParallel(arr []arrival, end time.Duration, final bool, groups int, nodeGroup []int, workers, wi int, crossCheck bool, sum *metrics.Summary) {
	// Partition pending events by owning node; events on unowned nodes (or
	// of kinds the partition argument doesn't cover — impossible under the
	// preconditions, but guarded) defer to a later window.
	perGroupEvents := make([][]event, groups)
	var deferred []event
	for len(s.events) > 0 {
		ev := s.events.pop()
		g := -1
		if ev.kind == evComplete && ev.node != nil {
			g = nodeGroup[ev.node.ID]
		}
		if g < 0 {
			deferred = append(deferred, ev)
			continue
		}
		perGroupEvents[g] = append(perGroupEvents[g], ev)
	}
	perGroupArr := make([][]arrival, groups)
	for _, a := range arr {
		g := nodeGroup[a.fr.cands[0].ID]
		perGroupArr[g] = append(perGroupArr[g], a)
	}

	ws := make([]*Simulator, groups)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		w := s.forkWorker()
		for _, ev := range perGroupEvents[g] {
			w.schedule(ev)
		}
		w.collector.Reserve(len(perGroupArr[g]))
		ws[g] = w
		wg.Add(1)
		go func(g int, w *Simulator) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			w.runWindow(perGroupArr[g], end, final)
		}(g, w)
	}
	wg.Wait()

	for g, w := range ws {
		if windowCorruptHook != nil {
			windowCorruptHook(wi, g, w)
		}
		// Leftover worker events re-enter the authoritative heap in worker
		// (at, seq) order; deferred unowned events follow, also in order.
		for len(w.events) > 0 {
			s.schedule(w.events.pop())
		}
		for _, r := range w.collector.Records() {
			if crossCheck {
				s.collector.Add(r)
			} else {
				sum.Observe(r)
			}
		}
		s.collector.Faults.Merge(w.collector.Faults)
		s.collector.Fanout.Merge(w.collector.Fanout)
		s.TransformsVerified += w.TransformsVerified
		s.TransformsFailed += w.TransformsFailed
	}
	for _, ev := range deferred {
		s.schedule(ev)
	}
}
