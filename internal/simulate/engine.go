package simulate

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metaop"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/supervisor"
	"repro/internal/workload"
)

// Config parameterizes a cluster simulation.
type Config struct {
	// Nodes is the worker-node count; ContainersPerNode bounds concurrent
	// containers per node.
	Nodes             int
	ContainersPerNode int
	// KeepAlive is the container keep-alive horizon (default 10 min, §8.1).
	KeepAlive time.Duration
	// IdleThreshold is the §4.2 idle-identification threshold (default 60 s).
	IdleThreshold time.Duration
	// Profile is the hardware cost profile (default cost.CPU()).
	Profile *cost.Profile
	// Policy is the container-management policy under test.
	Policy Policy
	// Placement maps function name → candidate node IDs. Functions absent
	// from the map (or a nil map) are hashed across all nodes.
	Placement map[string][]int
	// PlannerAlgo selects the transformation planning algorithm for
	// policies that plan (default AlgoGroup).
	PlannerAlgo planner.Algorithm
	// PlanCacheMax bounds the planning-strategy cache: beyond it the least
	// recently used plan is evicted (eviction counters surface through
	// planner.Cache.Counters). Zero keeps the cache unbounded.
	PlanCacheMax int
	// EstimatorErr adds deterministic profiling noise to planner estimates.
	EstimatorErr float64
	// Seed drives the estimator noise.
	Seed int64
	// VerifyTransforms executes every transformation plan through the
	// meta-operator engine and checks the rewritten graph equals the
	// destination model. Slower; used in tests and small demos.
	VerifyTransforms bool
	// OnlineProfiling, when positive, is the EWMA rate at which observed
	// meta-operator execution times refine the planner's cost estimates
	// while the system runs (§6 Future Work). Zero keeps the paper's
	// offline-only profiling.
	OnlineProfiling float64
	// NodeMemoryMB bounds each node's total container memory; zero keeps
	// the slot-based mode. ContainerMemoryMB, when positive, fixes every
	// container's grant (homogeneous allocation); zero with NodeMemoryMB
	// set sizes containers to their models (fine-grained, §6).
	NodeMemoryMB      int
	ContainerMemoryMB int
	// Faults configures deterministic multi-event fault injection
	// (transform aborts, failed loads, container crashes, node outages);
	// see package faults. The zero value disables injection, leaving the
	// simulation byte-identical to a run without the injector.
	Faults faults.Rates
	// MaxRetries bounds how many times a request whose container crashed
	// (or whose node failed) is re-dispatched before being dropped.
	// Zero means the default (2); negative disables retries entirely.
	MaxRetries int
	// OutageDuration is how long a failed node stays down before routing
	// considers it again (default 30 s).
	OutageDuration time.Duration
	// WatchdogFactor enables the supervision watchdog: a transformation
	// exceeding WatchdogFactor× its planned cost is cancelled and recovered
	// through the safeguard path (StartTimeout). Values at or below 1
	// disable the watchdog, leaving hung transforms undetected.
	WatchdogFactor float64
	// HangFactor is how far past its planned cost an *undetected* hung
	// transformation runs before finishing (default 10×). Only consulted
	// when Faults.Hang fires without a watchdog configured.
	HangFactor float64
	// Breaker configures the per-(src→dst)-pair transform circuit breaker;
	// the zero value (Threshold 0) disables it.
	Breaker supervisor.BreakerConfig
	// SlowFactor multiplies service time on a node inside an injected gray
	// slow window (default 4); SlowDuration is the window length
	// (default 60 s).
	SlowFactor   float64
	SlowDuration time.Duration
	// FlakyDuration is the flaky-donor window length (default 60 s): while
	// it lasts, transformations sourced on the node abort and recover
	// through the safeguard fallback.
	FlakyDuration time.Duration
	// BandwidthFactor multiplies transform cost on a node inside a degraded
	// transform-bandwidth window (default 3); BandwidthDuration is the
	// window length (default 60 s).
	BandwidthFactor   float64
	BandwidthDuration time.Duration
	// Health configures the per-node gray-failure health state machine
	// (package health): routing and donor selection skip quarantined and
	// draining nodes. The zero value disables tracking.
	Health health.Config
	// Retry configures seeded exponential backoff + jitter for crash and
	// outage re-dispatch; a zero Base keeps the immediate bounded retries.
	Retry supervisor.BackoffConfig
	// Hedge configures hedged transform starts: a transform hanging past
	// the configured percentile of observed transform durations gets a
	// backup started from the next-best donor, and the loser is cancelled.
	// A zero Percentile disables hedging.
	Hedge supervisor.HedgeConfig
	// Fanout configures fault-tolerant fan-out for burst absorption
	// (package fanout): a per-node queue for a function crossing the
	// threshold triggers one wave of replica builds, each streaming its
	// weights from one of the function's warm containers. Trace-replay
	// (event-loop) mode only — Online serving never queues, so fan-out never
	// triggers there. The zero value disables it.
	Fanout fanout.Config
	// RouteScan forces the legacy O(nodes×containers) scanning router for
	// trace replay instead of the incrementally-maintained routing index —
	// the "current engine" baseline for the scale benchmark.
	RouteScan bool
	// CrossCheckRouting runs the indexed and scanning routers side by side on
	// every dispatch and panics on the first divergence. Debug/test only:
	// it pays both routers' cost.
	CrossCheckRouting bool
}

// memoryMode derives the allocation mode from the config.
func (c Config) memoryMode() MemoryMode {
	switch {
	case c.NodeMemoryMB <= 0:
		return MemorySlots
	case c.ContainerMemoryMB > 0:
		return MemoryHomogeneous
	default:
		return MemoryFineGrained
	}
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.ContainersPerNode <= 0 {
		c.ContainersPerNode = 8
	}
	if c.KeepAlive <= 0 {
		c.KeepAlive = 10 * time.Minute
	}
	if c.IdleThreshold <= 0 {
		c.IdleThreshold = 60 * time.Second
	}
	if c.Profile == nil {
		c.Profile = cost.CPU()
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = 2
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	}
	if c.OutageDuration <= 0 {
		c.OutageDuration = 30 * time.Second
	}
	if c.HangFactor <= 1 {
		c.HangFactor = 10
	}
	if c.SlowFactor <= 1 {
		c.SlowFactor = 4
	}
	if c.SlowDuration <= 0 {
		c.SlowDuration = 60 * time.Second
	}
	if c.FlakyDuration <= 0 {
		c.FlakyDuration = 60 * time.Second
	}
	if c.BandwidthFactor <= 1 {
		c.BandwidthFactor = 3
	}
	if c.BandwidthDuration <= 0 {
		c.BandwidthDuration = 60 * time.Second
	}
	if c.Fanout.Enabled {
		c.Fanout = c.Fanout.WithDefaults()
	}
	return c
}

// Simulator runs request traces against a simulated cluster.
type Simulator struct {
	cfg   Config
	env   *Env
	nodes []*Node
	fns   map[string]*Function
	// fnRt caches per-function routing state (candidate nodes, home hash,
	// inter-arrival EWMA) so the hot path does no map lookups or slice
	// building per request.
	fnRt map[string]*fnRuntime
	// ords assigns each *Function a dense ordinal, the key for the routing
	// index's per-function counter slices. Shared with every nodeIndex.
	ords map[*Function]int32

	clock  time.Duration
	events eventHeap
	seq    int
	// idxOn reports that the per-node routing index is enabled (trace
	// replay without RouteScan); Online mode keeps it off.
	idxOn bool

	collector metrics.Collector
	// TransformsVerified counts plans executed through the meta-operator
	// engine when VerifyTransforms is on.
	TransformsVerified int

	est *cost.Estimator
	inj *faults.Injector
	// TransformsFailed counts injected transformation failures.
	TransformsFailed int

	watchdog *supervisor.Watchdog
	breaker  *supervisor.Breaker
	health   *health.Tracker
	backoff  *supervisor.Backoff
	hedger   *supervisor.Hedger

	// fanouts holds the active fan-out per function name; fanoutLog keeps
	// every fan-out started so Run can fold incomplete ones' tallies into the
	// collector at the end.
	fanouts   map[string]*fanoutRun
	fanoutLog []*fanoutRun
}

// fnRuntime is the per-function hot-path state: the resolved candidate node
// list and routing hash (static per simulation), and the inter-arrival EWMA
// the repurposing eligibility test consults. Keyed by function name so a
// redeploy under the same name keeps its demand statistics, matching the
// previous map-based bookkeeping.
type fnRuntime struct {
	fn    *Function
	cands []*Node
	hash  uint32
	// ord is the function's simulator-scoped ordinal: the dense key the
	// routing index uses for its per-function counters.
	ord int32

	// compute caches Profile.Compute(fn.Model) — a full graph walk, pure in
	// the model — so the hot path charges it without re-deriving per request.
	compute    time.Duration
	hasCompute bool

	lastArrival time.Duration
	hasLast     bool
	meanGap     time.Duration
	hasGap      bool
}

// New builds a simulator over the given functions.
func New(cfg Config, fns []*Function) *Simulator {
	cfg = cfg.withDefaults()
	est := cost.NewEstimator(cfg.Profile, cfg.EstimatorErr, cfg.Seed)
	if cfg.OnlineProfiling > 0 {
		est.EnableOnlineProfiling(cfg.OnlineProfiling)
	}
	s := &Simulator{
		cfg: cfg,
		est: est,
		env: &Env{
			Profile:           cfg.Profile,
			Planner:           planner.New(est, cfg.PlannerAlgo),
			Plans:             planner.NewCacheBounded(cfg.PlanCacheMax),
			IdleThreshold:     cfg.IdleThreshold,
			KeepAlive:         cfg.KeepAlive,
			MemoryMode:        cfg.memoryMode(),
			ContainerMemoryMB: cfg.ContainerMemoryMB,
		},
		fns: make(map[string]*Function, len(fns)),
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, &Node{ID: i, Capacity: cfg.ContainersPerNode, MemoryMB: cfg.NodeMemoryMB})
	}
	for _, f := range fns {
		s.fns[f.Name] = f
	}
	s.fnRt = make(map[string]*fnRuntime, len(fns))
	s.ords = make(map[*Function]int32, len(fns))
	s.inj = faults.New(cfg.Seed^0x5f3759df, cfg.Faults)
	s.watchdog = supervisor.NewWatchdog(supervisor.WatchdogConfig{Factor: cfg.WatchdogFactor})
	s.breaker = supervisor.NewBreaker(cfg.Breaker)
	s.health = health.New(cfg.Health, cfg.Nodes)
	s.backoff = supervisor.NewBackoff(cfg.Retry, cfg.Seed^0x3ade68b1)
	s.hedger = supervisor.NewHedger(cfg.Hedge)
	s.env.MeanInterArrival = func(fn string) (time.Duration, bool) {
		if r, ok := s.fnRt[fn]; ok && r.hasGap {
			return r.meanGap, true
		}
		return 0, false
	}
	return s
}

// rt returns fn's cached runtime state, building it on first use. The
// function pointer is refreshed each call so an Online redeploy under the
// same name takes effect while keeping the accumulated demand statistics.
func (s *Simulator) rt(fn *Function) *fnRuntime {
	r, ok := s.fnRt[fn.Name]
	if !ok {
		r = &fnRuntime{hash: hash32(fn.Name), cands: s.resolveCandidates(fn.Name)}
		s.fnRt[fn.Name] = r
	}
	if r.fn != fn {
		r.fn = fn
		r.hasCompute = false // redeploy: the model may have changed
		r.ord = s.ordFor(fn)
	}
	return r
}

// resolve returns the named function's runtime for replay: one map lookup
// once the runtime exists, since replay never redeploys a name. A function
// seen for the first time is looked up in the registry and its runtime built.
func (s *Simulator) resolve(name string) (*fnRuntime, bool) {
	if r, ok := s.fnRt[name]; ok {
		return r, true
	}
	fn, ok := s.fns[name]
	if !ok {
		return nil, false
	}
	return s.rt(fn), true
}

// ordFor returns fn's dense counter ordinal, assigning on first contact. The
// table is shared with every node's routing index.
func (s *Simulator) ordFor(fn *Function) int32 {
	ord, ok := s.ords[fn]
	if !ok {
		ord = int32(len(s.ords))
		s.ords[fn] = ord
	}
	return ord
}

// computeFor returns fn's per-request compute time, cached on its runtime.
func (s *Simulator) computeFor(fr *fnRuntime) time.Duration {
	if !fr.hasCompute {
		fr.compute = s.env.Profile.Compute(fr.fn.Model)
		fr.hasCompute = true
	}
	return fr.compute
}

// resolveCandidates maps a function's placement entry to node pointers,
// mirroring candidates(): invalid IDs are dropped, and an absent or empty
// entry binds the function to every node.
func (s *Simulator) resolveCandidates(name string) []*Node {
	if ids, ok := s.cfg.Placement[name]; ok && len(ids) > 0 {
		out := make([]*Node, 0, len(ids))
		for _, id := range ids {
			if id >= 0 && id < len(s.nodes) {
				out = append(out, s.nodes[id])
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return s.nodes
}

// observeArrival updates the per-function inter-arrival EWMA used by the
// repurposing eligibility test.
func (s *Simulator) observeArrival(fr *fnRuntime, at time.Duration) {
	if fr.hasLast {
		gap := at - fr.lastArrival
		if fr.hasGap {
			fr.meanGap = (fr.meanGap*4 + gap) / 5
		} else {
			fr.meanGap, fr.hasGap = gap, true
		}
	}
	fr.lastArrival, fr.hasLast = at, true
}

// enableIndex builds the per-node routing index from current cluster state
// (empty at the start of a replay).
func (s *Simulator) enableIndex() {
	if s.idxOn {
		return
	}
	s.idxOn = true
	for _, n := range s.nodes {
		ix := newNodeIndex(s.env.IdleThreshold, s.ords)
		n.idx = ix
		var young []idxTimer
		for _, c := range n.Containers {
			c.idxOrd = ix.ordOf(c.Fn)
			switch {
			case c.Busy(s.clock):
				c.idxState = idxBusy
				ix.busy++
				ix.busyMB += c.MemMB
				ix.timers.push(idxTimer{at: c.BusyUntil, c: c})
				// If the busy period ends young with this LastDone still in
				// place (no completion event re-keys it, e.g. an Online-served
				// container), maturation needs a timer keyed to it.
				young = append(young, idxTimer{at: c.LastDone + ix.minIdle, c: c})
			case s.clock-c.LastDone >= ix.minIdle:
				c.idxState = idxMature
				ix.warm[c.idxOrd]++
				ix.mature[c.idxOrd]++
				ix.matureTotal++
			default:
				c.idxState = idxYoung
				ix.warm[c.idxOrd]++
				young = append(young, idxTimer{at: c.LastDone + ix.minIdle, c: c})
			}
		}
		// The maturation ring requires monotone fire times; pre-existing idle
		// containers carry arbitrary LastDone values, so sort before seeding,
		// equal times in container order.
		slices.SortStableFunc(young, func(a, b idxTimer) int { return cmp.Compare(a.at, b.at) })
		for _, t := range young {
			ix.matureQ.push(t)
		}
	}
}

// Env exposes the simulator's policy environment (plan cache, planner).
func (s *Simulator) Env() *Env { return s.env }

// Collector returns the accumulated request metrics.
func (s *Simulator) Collector() *metrics.Collector { return &s.collector }

// arrival is one trace request resolved to its function runtime.
type arrival struct {
	at time.Duration
	fr *fnRuntime
}

// Run replays the trace to completion and returns the collected metrics:
// the simulator's collector, which keeps records only when its KeepRecords
// is set. Unknown function names in the trace are an error; the requests
// before the first chunk holding one have been replayed by then.
//
// Run is RunStream over trace.Cursor(), folding into the collector instead
// of a summary. A trace out of arrival order is replayed as a stably sorted
// copy, so equal arrivals keep trace order. Arrivals are not pushed onto the
// event heap: each chunk is merged with engine events by runChunk, keeping
// the heap sized by in-flight work instead of trace length.
//
// When the registered functions' candidate sets split the nodes into two or
// more groups and nothing couples them (replayGroups), the groups replay on
// up to GOMAXPROCS parallel workers (runGroups), so cfg.Policy.Serve is
// called concurrently for nodes in different groups and must not change
// state shared between calls (see Policy). Every record, aggregate and
// counter is the serial loop's; only the order of records that start at the
// same instant in different groups is fixed by group (Collector.Merge)
// rather than by event order, so record order does not depend on GOMAXPROCS.
func (s *Simulator) Run(trace *workload.Trace) (*metrics.Collector, error) {
	byAt := func(a, b workload.Request) int { return cmp.Compare(a.At, b.At) }
	if !slices.IsSortedFunc(trace.Requests, byAt) {
		trace = &workload.Trace{Requests: slices.Clone(trace.Requests), Duration: trace.Duration}
		slices.SortStableFunc(trace.Requests, byAt)
	}
	if err := s.runChunks(trace.Cursor(), nil); err != nil {
		return nil, err
	}
	return &s.collector, nil
}

// foldFanoutLog folds in the tallies of fan-outs that never reached their
// target (capacity-starved, seeds all lost, or the trace simply ended): they
// still report what they did.
func (s *Simulator) foldFanoutLog() {
	for _, run := range s.fanoutLog {
		s.mergeFanout(run)
	}
}

// runChunk replays time-sorted arrivals merged with pending events, firing
// events strictly before limit (arrivals first at equal timestamps); final
// drains the event heap completely. runChunks calls it once per chunk, on s
// or, on the group path, on every group worker with its group's share.
func (s *Simulator) runChunk(arr []arrival, limit time.Duration, final bool) {
	next := 0
	for next < len(arr) || s.events.len() > 0 {
		if next < len(arr) && (s.events.len() == 0 || arr[next].at <= s.events.nextAt()) {
			a := arr[next]
			next++
			s.clock = a.at
			s.arrive(a.fr, a.at)
			continue
		}
		if !final && s.events.nextAt() >= limit {
			return
		}
		s.step(s.events.pop())
	}
}

// step advances the clock to the event and fires it.
func (s *Simulator) step(ev event) {
	s.clock = ev.at
	switch ev.kind {
	case evDispatch:
		s.dispatch(ev.fr, ev.arrival, ev.retries)
	case evComplete:
		s.complete(ev.node, ev.c)
	case evCrash:
		s.crash(ev.node, ev.c)
	case evFanoutStruct:
		s.fanoutStruct(ev)
	case evFanoutDone:
		s.fanoutDone(ev)
	case evFanoutCrash:
		s.fanoutCrash(ev)
	}
}

// streamChunk is how many arrivals runChunks pulls from its cursor per
// chunk, held in per-group buffers that are reused across chunks.
var streamChunk = 1 << 16

// RunStream replays requests pulled lazily from src — Run's constant-memory
// twin: it returns a Summary and leaves the simulator's collector as it was.
// Memory is bounded by cluster state (nodes, containers, in-flight events)
// and one chunk of arrivals and latencies, independent of trace length.
// Like Run it replays on parallel group workers when the placement of every
// registered function splits the nodes into groups; only its quantiles come
// from the Summary's sketch instead of an exact latency column. src must
// yield requests in nondecreasing timestamp order (any Stream or
// Trace.Cursor qualifies); out-of-order input or an unknown function name
// is an error.
func (s *Simulator) RunStream(src workload.Cursor) (*metrics.Summary, error) {
	kept := s.collector
	s.collector = metrics.Collector{}
	defer func() { s.collector = kept }()
	sum := &metrics.Summary{}
	if err := s.runChunks(src, sum); err != nil {
		return nil, err
	}
	return sum, nil
}

// runChunks is the one replay loop behind Run and RunStream. It pulls src in
// chunks of streamChunk arrivals and replays each merged with engine events,
// firing events strictly before the next chunk's first arrival, so the
// interleaving is the serial loop's: at equal timestamps arrivals fire
// before engine events. When the nodes split into groups it forks the group
// workers once, hands each chunk's arrivals to their group's worker, and
// joins the workers when the trace ends. With stream set, every collector is
// folded into it and emptied after each chunk, so no latency column grows
// past one chunk.
func (s *Simulator) runChunks(src workload.Cursor, stream *metrics.Summary) error {
	groups, nodeGroup := s.replayGroups()
	if !s.cfg.RouteScan || s.cfg.CrossCheckRouting {
		s.enableIndex() // after the partition, which may assign ordinals: the index sizes by them
	}
	var ws []*Simulator
	if groups >= 2 {
		ws = s.forkGroups(groups, nodeGroup)
	}
	cols := []*metrics.Collector{&s.collector}
	for _, w := range ws {
		cols = append(cols, &w.collector)
	}
	bufs := make([][]arrival, max(groups, 1))
	req, more := src.Next()
	var last time.Duration
	var err error
	for final := false; !final; {
		for g := range bufs {
			bufs[g] = bufs[g][:0]
		}
		for n := 0; more && n < streamChunk; n++ {
			if req.At < last {
				err = fmt.Errorf("simulate: stream out of order: %v after %v", req.At, last)
				break
			}
			last = req.At
			fr, known := s.resolve(req.Function)
			if !known {
				err = fmt.Errorf("simulate: trace references unknown function %q", req.Function)
				break
			}
			g := 0
			if ws != nil {
				g = nodeGroup[fr.cands[0].ID]
			}
			bufs[g] = append(bufs[g], arrival{at: req.At, fr: fr})
			req, more = src.Next()
		}
		if err != nil {
			break
		}
		final = !more
		if ws == nil {
			s.runChunk(bufs[0], req.At, final)
		} else {
			runGroups(ws, bufs, req.At, final, runtime.GOMAXPROCS(0))
		}
		if stream != nil {
			for _, c := range cols {
				stream.Merge(&c.Summary)
				c.Reset()
			}
		}
	}
	if ws != nil {
		s.joinGroups(ws)
		if err == nil {
			// Events on nodes no group owns touch nothing else: they drain
			// afterwards without moving the clock back.
			clock := s.clock
			s.runChunk(nil, 0, true)
			s.clock = max(s.clock, clock)
		}
	}
	s.foldFanoutLog()
	if stream != nil {
		stream.Merge(&s.collector.Summary)
	}
	return err
}

type eventKind uint8

const (
	// evDispatch re-dispatches a request parked while all its candidate
	// nodes were down.
	evDispatch eventKind = iota
	// evComplete frees a container at its service completion.
	evComplete
	// evCrash destroys a container at its injected crash point.
	evCrash
	// evFanoutStruct finishes a fan-out recipient's local structure load.
	evFanoutStruct
	// evFanoutDone finishes a fan-out recipient's weights stream or fallback
	// load, idling the warm replica into service.
	evFanoutDone
	// evFanoutCrash kills a fan-out donor midway through a donation.
	evFanoutCrash
)

// event is a typed engine event. A flat struct on a hand-rolled heap instead
// of closures through container/heap: no per-event closure allocation and no
// interface boxing on push/pop.
type event struct {
	at      time.Duration
	kind    eventKind
	node    *Node
	c       *Container
	fr      *fnRuntime
	arrival time.Duration
	retries int
	// fo, member and gen drive fan-out events: the run, the member
	// the event concerns, and the generation it was scheduled under — stale
	// events (member rescheduled or torn down since) are dropped at fire time.
	fo     *fanoutRun
	member int
	gen    int
	// foCorrupt carries the pre-drawn faults.Corrupt outcome of a scheduled
	// donation, so the draw order is fixed at scheduling time.
	foCorrupt bool
}

// eventKey is one heap entry: the event's (at, seq) order and the slab slot
// holding the event itself.
type eventKey struct {
	at   time.Duration
	seq  int
	slot int
}

func (a eventKey) before(b eventKey) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventHeap is a min-heap ordered by (at, seq). The heap holds only 24-byte
// keys, and push and pop move a hole instead of swapping, so sifting never
// copies an event; the events wait in a slab. A popped event's slot is
// zeroed, so the slab keeps no pointers alive, and parked just past the
// heap's end: keys[len(keys):len(slab)] always holds exactly the free
// slots, in capacity keys already has.
type eventHeap struct {
	keys []eventKey
	slab []event
}

// eventHeapCap is the first capacity of the keys and the slab, above the
// few dozen events a replay usually has in flight.
const eventHeapCap = 64

func (h *eventHeap) len() int { return len(h.keys) }

// nextAt returns the earliest pending event's time; the heap must be
// non-empty.
func (h *eventHeap) nextAt() time.Duration { return h.keys[0].at }

func (h *eventHeap) push(ev event, seq int) {
	n := len(h.keys)
	k := eventKey{at: ev.at, seq: seq, slot: n}
	if n < len(h.slab) {
		k.slot = h.keys[:n+1][n].slot
		h.slab[k.slot] = ev
	} else {
		if h.slab == nil {
			h.keys = make([]eventKey, 0, eventHeapCap)
			h.slab = make([]event, 0, eventHeapCap)
		}
		h.slab = append(h.slab, ev)
	}
	h.keys = append(h.keys, k)
	q := h.keys
	i := n
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = k
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() event {
	q := h.keys
	top := q[0].slot
	n := len(q) - 1
	last := q[n]
	q[n] = eventKey{slot: top}
	q = q[:n]
	h.keys = q
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c]) {
				c = r
			}
			if !q[c].before(last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	ev := h.slab[top]
	h.slab[top] = event{}
	return ev
}

func (s *Simulator) schedule(ev event) {
	s.events.push(ev, s.seq)
	s.seq++
}

// arrive admits a new request and dispatches it.
func (s *Simulator) arrive(fr *fnRuntime, arrival time.Duration) {
	s.admit(fr, arrival)
	s.dispatch(fr, arrival, 0)
}

// admit is the arrival prelude replay and Online share: the inter-arrival
// EWMA update, then the per-arrival outage and slow-window draws against the
// routed node.
func (s *Simulator) admit(fr *fnRuntime, arrival time.Duration) {
	s.observeArrival(fr, arrival)
	if s.inj.Fire(faults.Outage) {
		s.failNode(s.routeFor(fr))
	}
	if s.inj.Fire(faults.Slow) {
		s.slowNode(s.routeFor(fr))
	}
}

// slowNode opens (or extends) a gray slow window on the node: it keeps
// serving, but SlowFactor× slower, until the window closes.
func (s *Simulator) slowNode(n *Node) {
	if !n.Slow(s.clock) {
		s.collector.Faults.SlowWindows++
	}
	n.SlowUntil = s.clock + s.cfg.SlowDuration
}

// dispatch routes a (possibly retried) request. When every candidate node is
// down it parks the request until the earliest recovery.
func (s *Simulator) dispatch(fr *fnRuntime, arrival time.Duration, retries int) {
	node := s.routeFor(fr)
	if node.Down(s.clock) {
		at := firstRecovery(fr, node).DownUntil
		s.schedule(event{at: at, kind: evDispatch, fr: fr, arrival: arrival, retries: retries})
		return
	}
	s.serveOrQueue(node, fr, arrival, retries)
}

// firstRecovery returns the candidate of fr that comes back up first, the
// routed node on ties. The routers return a down node only when every
// candidate is down, so this is the earliest time the request can run.
func firstRecovery(fr *fnRuntime, routed *Node) *Node {
	first := routed
	for _, n := range fr.cands {
		if n.DownUntil < first.DownUntil {
			first = n
		}
	}
	return first
}

// failNode takes a node down for the configured outage duration: resident
// containers are lost, and queued plus in-flight requests are re-dispatched
// to the surviving nodes within their retry budgets.
func (s *Simulator) failNode(n *Node) {
	n.DownUntil = s.clock + s.cfg.OutageDuration
	s.collector.Faults.Outages++
	lost := n.Containers
	n.Containers = nil
	requeue := n.queue
	n.queue = nil
	if n.idx != nil {
		n.idx.reset()
	}
	s.health.ObserveFailure(n.ID, s.clock)
	for _, c := range lost {
		c.dead = true
		c.idxState = idxNone
		s.watchdog.Expire(c.ID)
		if c.hasServing {
			c.hasServing = false
			if c.crashPending {
				// Only a crash-pending request is still unrecorded; any other
				// in-flight service was committed at serve time and must not
				// be re-dispatched (it would be counted twice).
				c.crashPending = false
				s.retryOrDrop(c.serving)
			}
		}
	}
	for _, q := range requeue {
		s.dispatch(q.fr, q.arrival, q.retries)
	}
	// The outage may have wiped fan-out members; reconcile retires them and
	// re-parents any children that were streaming from them.
	s.pumpFanouts()
}

// retryOrDrop re-dispatches a request whose container was lost, or drops it
// once the retry budget is exhausted. With a retry backoff configured the
// re-dispatch is delayed by the seeded exponential backoff instead of firing
// immediately.
func (s *Simulator) retryOrDrop(in inflight) {
	d, ok := s.retryBudget(in.retries)
	switch {
	case !ok:
	case d > 0:
		s.schedule(event{at: s.clock + d, kind: evDispatch, fr: in.fr, arrival: in.arrival, retries: in.retries + 1})
	default:
		s.dispatch(in.fr, in.arrival, in.retries+1)
	}
}

// retryBudget charges one more attempt to a request that has already been
// retried `retries` times. Past the budget it counts the request dropped and
// reports false; otherwise it counts the retry and returns the seeded backoff
// delay before re-dispatch (zero for an immediate retry).
func (s *Simulator) retryBudget(retries int) (time.Duration, bool) {
	if retries >= s.cfg.MaxRetries {
		s.collector.Faults.Dropped++
		return 0, false
	}
	s.collector.Faults.Retries++
	d := s.backoff.Delay(retries)
	if d > 0 {
		s.collector.Faults.BackoffRetries++
	}
	return d, true
}

// unroutable reports whether routing should skip the node at now: down from
// an injected outage, or avoided by the health tracker (quarantined or
// draining). Both routers and candidates() apply it identically, so the
// CrossCheckRouting oracle stays exact with health-aware routing on.
func (s *Simulator) unroutable(n *Node, now time.Duration) bool {
	if n.Down(now) {
		return true
	}
	return s.health != nil && s.health.Avoid(n.ID, now)
}

// routeFor routes through the index when enabled, falling back to (or
// cross-checking against) the legacy scanning router.
func (s *Simulator) routeFor(fr *fnRuntime) *Node {
	if !s.idxOn {
		return s.route(fr.fn)
	}
	picked := s.routeIndexed(fr)
	if s.cfg.CrossCheckRouting {
		if scan := s.route(fr.fn); scan != picked {
			//optimus:allow panicpath — cross-check oracle: indexed routing diverged from the scan baseline
			panic(fmt.Sprintf(
				"simulate: routing divergence for %q at %v: index chose node %d, scan chose node %d",
				fr.fn.Name, s.clock, picked.ID, scan.ID))
		}
	}
	return picked
}

// downScore ranks a down node below every up one. Routing scores the full
// candidate set when all of it is unroutable, and a down node is empty, so
// its free capacity would otherwise outscore a quarantined node that is up.
const downScore = -4_000_000

// route picks the best candidate node for fn: a warm idle container wins,
// then a repurposable idle container, then free capacity, finally the
// shortest queue; a down node comes last. Among otherwise-equal nodes the
// function's hash-derived "home" node within its candidate set wins, so a
// function placed on a multi-node cluster keeps warm-container locality
// instead of fragmenting containers across the cluster.
//
// This is the legacy scanning router: O(containers) per candidate node. It
// serves the Online path, the RouteScan baseline, and the CrossCheckRouting
// oracle; trace replay normally routes through routeIndexed.
func (s *Simulator) route(fn *Function) *Node {
	cands := s.candidates(fn)
	now := s.clock
	home := cands[int(hash32(fn.Name))%len(cands)]
	best := cands[0]
	bestScore := -1 << 30
	for _, n := range cands {
		score := 0
		switch {
		case n.Down(now):
			score = downScore
		case n.WarmIdle(fn, now) != nil:
			score = 3_000_000
		case n.HasIdleOther(fn, now, s.env.IdleThreshold):
			score = 2_000_000
		case n.CanPlace(now):
			score = 1_000_000
		}
		if n == home {
			score += 500_000
		}
		score -= len(n.queue)*10 + s.busyCount(n, now)
		if score > bestScore {
			bestScore = score
			best = n
		}
	}
	return best
}

// routeIndexed is route() answered from the per-node index: no candidate
// slice is built and no container is scanned. It iterates fr's cached
// candidate list, skipping down nodes exactly as candidates() filters them
// (when everything is down the full list is scored, mirroring the fallback),
// and scores each node from counters expire() brings up to date.
func (s *Simulator) routeIndexed(fr *fnRuntime) *Node {
	now := s.clock
	ord := fr.ord
	cands := fr.cands
	up := 0
	for _, n := range cands {
		if !s.unroutable(n, now) {
			up++
		}
	}
	all := up == 0 || up == len(cands)
	var homeIdx int
	if all {
		homeIdx = int(fr.hash) % len(cands)
	} else {
		homeIdx = int(fr.hash) % up
	}
	// Fast path for the dominant case: a warm home node is the unique argmax,
	// so the scoring loop (and the other candidates' expire calls) can be
	// skipped. Proof: the home node scores 3.5M − p_home with penalty
	// p = 10·queue + busy ≥ 0; every other node scores ≤ 3M − p_other ≤ 3M.
	// With p_home < 500_000 the home score is strictly above 3M, and a tie
	// would need p_other = p_home − 500_000 < 0 — impossible. The guard keeps
	// exactness even under pathological queue lengths; the rare partly-down
	// case, and a down home (which scores downScore), fall through to the
	// full scan.
	if all {
		home := cands[homeIdx]
		ix := home.idx
		ix.expire(now)
		if ix.warmAt(ord) > 0 && len(home.queue)*10+ix.busy < 500_000 && !home.Down(now) {
			return home
		}
	}
	var best *Node
	bestScore := -1 << 30
	i := 0
	for _, n := range cands {
		if !all && s.unroutable(n, now) {
			continue
		}
		ix := n.idx
		ix.expire(now)
		score := 0
		switch {
		case n.Down(now):
			score = downScore
		case ix.warmAt(ord) > 0:
			score = 3_000_000
		case ix.matureTotal-int(ix.matureAt(ord)) > 0:
			score = 2_000_000
		case ix.busy < n.Capacity && (n.MemoryMB == 0 || ix.busyMB <= n.MemoryMB):
			score = 1_000_000
		}
		if i == homeIdx {
			score += 500_000
		}
		score -= len(n.queue)*10 + ix.busy
		if score > bestScore {
			bestScore = score
			best = n
		}
		i++
	}
	return best
}

func (s *Simulator) busyCount(n *Node, now time.Duration) int {
	c := 0
	for _, ct := range n.Containers {
		if ct.Busy(now) {
			c++
		}
	}
	return c
}

func (s *Simulator) candidates(fn *Function) []*Node {
	base := s.nodes
	if ids, ok := s.cfg.Placement[fn.Name]; ok && len(ids) > 0 {
		out := make([]*Node, 0, len(ids))
		for _, id := range ids {
			if id >= 0 && id < len(s.nodes) {
				out = append(out, s.nodes[id])
			}
		}
		if len(out) > 0 {
			base = out
		}
	}
	// Route around failed and health-avoided nodes; when the whole candidate
	// set is unroutable the caller proceeds against the full set (and waits
	// for recovery only if everything is actually down).
	up := base
	for i, n := range base {
		if s.unroutable(n, s.clock) {
			up = make([]*Node, 0, len(base))
			up = append(up, base[:i]...)
			for _, m := range base[i+1:] {
				if !s.unroutable(m, s.clock) {
					up = append(up, m)
				}
			}
			break
		}
	}
	if len(up) == 0 {
		return base
	}
	return up
}

func (s *Simulator) serveOrQueue(node *Node, fr *fnRuntime, arrival time.Duration, retries int) {
	if !s.serve(node, fr, arrival, retries) {
		node.queue = append(node.queue, queued{fr: fr, arrival: arrival, retries: retries})
		if s.cfg.Fanout.Enabled {
			s.maybeFanout(node, fr)
		}
	}
}

// transformPair names the (src→dst) pair a transform decision acts on, for
// circuit-breaker bookkeeping: the donor and destination models of a planned
// transformation (the names its plan carries), else the two functions.
func transformPair(d Decision, fn *Function) (src, dst string) {
	if d.Strategy.Valid() {
		return d.Reuse.Fn.Model.Name, fn.Model.Name
	}
	return d.Reuse.Fn.Name, fn.Name
}

// superviseDecision applies the supervision layer and fault injection to a
// policy decision: the circuit breaker may short-circuit a transform to a
// from-scratch load, gray flaky/bandwidth windows degrade transforms on the
// serving node, injected aborts take the safeguard fallback, injected hangs
// are recovered by a hedged backup from the next-best donor, cancelled by the
// watchdog at their deadline, or run undetected for HangFactor× the plan, and
// from-scratch loads may fail and restart. Returns the (possibly degraded)
// decision.
func (s *Simulator) superviseDecision(d Decision, fn *Function, node *Node, now time.Duration) Decision {
	if d.Kind == metrics.StartTransform && d.Reuse != nil {
		src, dst := transformPair(d, fn)
		if !s.breaker.Allow(src, dst, now) {
			// The pair's breaker is open: skip the doomed transform attempt
			// entirely and load from scratch (still saving sandbox init).
			d.Kind = metrics.StartBreaker
			d.Load = s.env.ModelLoad(fn.Model)
			d.Strategy = planner.Costed{}
			s.collector.Faults.BreakerShortCircuits++
		} else {
			if s.inj.Fire(faults.Flaky) {
				if !node.Flaky(now) {
					s.collector.Faults.FlakyWindows++
				}
				node.FlakyUntil = now + s.cfg.FlakyDuration
			}
			if s.inj.Fire(faults.Bandwidth) {
				if !node.DegradedBandwidth(now) {
					s.collector.Faults.BandwidthWindows++
				}
				node.BandwidthUntil = now + s.cfg.BandwidthDuration
			}
			if node.DegradedBandwidth(now) {
				// Degraded transform bandwidth inflates the transform cost
				// before any abort or hang accounting charges it.
				d.Load = time.Duration(float64(d.Load) * s.cfg.BandwidthFactor)
			}
			switch {
			case node.Flaky(now):
				// The donor node is inside a flaky window: the transform
				// aborts and recovers through the safeguard path, and the
				// health tracker sees the node fail.
				d.Load = d.Load/2 + s.env.ModelLoad(fn.Model)
				d.Kind = metrics.StartFallback
				s.collector.Faults.FlakyFallbacks++
				s.breaker.RecordFailure(src, dst, now)
				s.health.ObserveFailure(node.ID, now)
			case s.inj.Fire(faults.Transform):
				// The transformation aborts halfway through and the container
				// recovers by discarding the partial state and loading the
				// destination model from scratch (the safeguard's recovery path).
				d.Load = d.Load/2 + s.env.ModelLoad(fn.Model)
				d.Kind = metrics.StartFallback
				s.TransformsFailed++
				s.collector.Faults.TransformFallbacks++
				s.breaker.RecordFailure(src, dst, now)
			case s.inj.Fire(faults.Hang):
				d = s.superviseHang(d, fn, node, src, dst, now)
			default:
				s.breaker.RecordSuccess(src, dst)
				s.hedger.Observe(d.Load)
			}
		}
	}
	// Every start kind that (re)acquires the model from scratch is exposed to
	// load faults — including hedged recoveries, whose kind is assigned by
	// superviseHang before this check runs.
	if (d.Kind == metrics.StartCold || d.Kind == metrics.StartFallback ||
		d.Kind == metrics.StartTimeout || d.Kind == metrics.StartBreaker ||
		d.Kind == metrics.StartHedge) && s.inj.Fire(faults.Load) {
		// The from-scratch load dies partway in and restarts: half the
		// attempted load is wasted, then the full load runs again.
		d.Load += d.Load / 2
		s.collector.Faults.LoadRetries++
	}
	return d
}

// superviseHang resolves an injected transform hang: a hedged backup from the
// next-best donor wins if it beats the primary's own recovery path, otherwise
// the watchdog cancels the hung transform at its deadline, or — with neither
// configured — the transform stalls undetected for HangFactor× the plan.
func (s *Simulator) superviseHang(d Decision, fn *Function, node *Node, src, dst string, now time.Duration) Decision {
	s.collector.Faults.Hangs++
	planned := d.Load
	fresh := s.env.ModelLoad(fn.Model)
	if hd, ok := s.hedgeDeadline(node, fn, now); ok {
		// A backup transform starts from the next-best donor at the hedge
		// deadline; whichever recovery finishes first wins, and the loser is
		// cancelled.
		hedged := hd + planned
		var unhedged time.Duration
		if s.watchdog != nil {
			unhedged = s.watchdog.Deadline(planned) + fresh
		} else {
			unhedged = time.Duration(float64(planned) * s.cfg.HangFactor)
		}
		win := hedged < unhedged
		s.hedger.RecordHedge(win)
		s.collector.Faults.HedgedTransforms++
		if win {
			d.Load = hedged
			d.Kind = metrics.StartHedge
			s.collector.Faults.HedgeWins++
			s.breaker.RecordFailure(src, dst, now)
			s.health.ObserveFailure(node.ID, now)
			return d
		}
	}
	if s.watchdog != nil {
		// The watchdog cancels the hung transform at its deadline and the
		// safeguard loads from scratch: the request pays the full deadline
		// window plus the fresh load.
		d.Load = s.watchdog.Deadline(planned) + fresh
		d.Kind = metrics.StartTimeout
		s.watchdog.RecordCancel()
		s.collector.Faults.WatchdogCancels++
		s.breaker.RecordFailure(src, dst, now)
		s.health.ObserveFailure(node.ID, now)
	} else {
		// Undetected: the transform stalls for HangFactor× the plan before
		// eventually finishing on its own.
		d.Load = time.Duration(float64(planned) * s.cfg.HangFactor)
		s.breaker.RecordSuccess(src, dst)
		s.health.ObserveFailure(node.ID, now)
	}
	return d
}

// hedgeDeadline arms a hedge for a hung transform: the hedger needs enough
// observed transform durations, and the node a second repurposable donor for
// the backup to start from.
func (s *Simulator) hedgeDeadline(node *Node, fn *Function, now time.Duration) (time.Duration, bool) {
	if s.hedger == nil {
		return 0, false
	}
	hd, ok := s.hedger.Deadline()
	if !ok {
		return 0, false
	}
	if len(node.RepurposeCandidates(s.env, fn, now)) < 2 {
		return 0, false
	}
	return hd, true
}

// serve runs the start step at the current clock and keeps a started request
// in flight: the index transition, the watchdog lease, and the completion
// event — or, after a crash draw, the crash event that re-dispatches the
// request within its retry budget (wasted time surfaces as extra wait).
func (s *Simulator) serve(node *Node, fr *fnRuntime, arrival time.Duration, retries int) bool {
	c, _, crashed := s.start(node, fr, arrival, s.clock, retries)
	if c == nil {
		return false
	}
	c.serving, c.hasServing = inflight{fr: fr, arrival: arrival, retries: retries}, true
	c.crashPending = crashed
	node.noteStartService(c, fr.ord)
	s.watchdog.Lease(c.ID, c.BusyUntil)
	kind := evComplete
	if crashed {
		kind = evCrash
	}
	s.schedule(event{at: c.BusyUntil, kind: kind, node: node, c: c})
	return true
}

// start is the request path replay and Online share (§4.2–§4.4): it asks
// the policy for a decision on node at now and executes it — verifying and
// profiling the chosen plan, supervising it, placing or resizing the
// container, inflating service inside a slow window, and drawing a crash.
// c is nil when the policy cannot serve (everything busy). Otherwise c is
// busy until its service ends and rec is collected — unless crashed, when
// c is busy only until the crash point halfway through service and no
// record exists yet.
func (s *Simulator) start(node *Node, fr *fnRuntime, arrival, now time.Duration, retries int) (c *Container, rec metrics.Record, crashed bool) {
	fn := fr.fn
	node.expireIndex(now)
	node.EvictExpired(now, s.env.KeepAlive)
	d, ok := s.cfg.Policy.Serve(s.env, node, fn, now)
	if !ok {
		return nil, rec, false
	}
	if d.Reuse != nil && d.Reuse.fanoutFresh {
		// First service of a replica warmed by fan-out: a warm reuse is
		// credited to fan-out. Any other decision (e.g. repurposing the
		// replica for another function) just consumes the flag.
		d.Reuse.fanoutFresh = false
		if d.Kind == metrics.StartWarm {
			d.Kind = metrics.StartFanout
		}
	}
	if s.cfg.VerifyTransforms && d.Strategy.Valid() && d.Reuse != nil {
		if err := metaop.Verify(s.env.Profile, d.Strategy.Plan(), d.Reuse.Fn.Model, fn.Model); err != nil {
			//optimus:allow panicpath — cross-check oracle: executed transformation contradicts its plan
			panic(fmt.Sprintf("simulate: transformation verification failed: %v", err))
		}
		s.TransformsVerified++
	}
	if s.cfg.OnlineProfiling > 0 && d.Strategy.Valid() && d.Reuse != nil && !d.Strategy.LoadFromScratch {
		s.observeExecution(d.Strategy.Plan(), d.Reuse.Fn.Model)
	}
	d = s.superviseDecision(d, fn, node, now)

	c = d.Reuse
	if c == nil {
		c = node.newContainer(fn, s.env.GrantFor(fn), now)
	} else if s.env.MemoryMode == MemoryFineGrained {
		// Fine-grained allocation resizes the repurposed container to the
		// new model, releasing the surplus the homogeneous mode would waste.
		c.MemMB = s.env.GrantFor(fn)
	}
	c.Fn = fn
	compute := s.computeFor(fr)
	if node.Slow(now) {
		// A gray-slow node serves everything SlowFactor× slower; each
		// breakdown component inflates alike so records stay additive.
		f := s.cfg.SlowFactor
		d.Init = time.Duration(float64(d.Init) * f)
		d.Load = time.Duration(float64(d.Load) * f)
		compute = time.Duration(float64(compute) * f)
	}
	service := d.Init + d.Load + compute
	if s.inj.Fire(faults.Crash) {
		// The container dies halfway through serving; the caller decides how
		// the request recovers.
		c.BusyUntil = now + service/2
		s.collector.Faults.Crashes++
		s.health.ObserveFailure(node.ID, now)
		return c, rec, true
	}
	s.health.ObserveServed(node.ID, now, service)
	c.BusyUntil = now + service
	rec = metrics.Record{
		Function: fn.Name,
		Kind:     d.Kind,
		Arrival:  arrival,
		Start:    now,
		End:      c.BusyUntil,
		Wait:     now - arrival,
		Init:     d.Init,
		Load:     d.Load,
		Compute:  compute,
		Retries:  retries,
	}
	s.collector.Add(rec)
	return c, rec, false
}

// crash destroys a container at its crash point and re-dispatches the
// victim request. The freed slot may unblock the node's queue.
func (s *Simulator) crash(node *Node, c *Container) {
	if c.dead {
		return // already lost to a node outage
	}
	c.dead = true
	c.crashPending = false
	node.Remove(c)
	s.watchdog.Expire(c.ID)
	if c.hasServing {
		c.hasServing = false
		s.retryOrDrop(c.serving)
	}
	s.drainQueue(node)
	s.pumpFanouts()
}

// complete frees a container and drains the node's queue. Index timers are
// drained before LastDone is rewritten so the busy→idle transition observes
// the stale LastDone, exactly as a same-timestamp arrival's scan would;
// noteComplete then re-keys the container's maturation to the fresh value.
func (s *Simulator) complete(node *Node, c *Container) {
	if c.dead {
		return // destroyed by an outage while this completion was pending
	}
	node.expireIndex(s.clock)
	c.LastDone = s.clock
	c.hasServing = false
	node.noteComplete(c, s.clock)
	s.watchdog.Complete(c.ID)
	if s.health != nil && s.nodeDrained(node, s.clock) {
		s.health.NoteDrained(node.ID, s.clock)
	}
	s.drainQueue(node)
	if c.fanoutBuilt {
		// A tree-built replica that idles while other nodes still queue for
		// its function pulls one of those requests over: fan-out warmth
		// absorbs the burst cluster-wide, not just where static placement
		// lets the router reach.
		s.fanoutStealInto(node, c)
	}
	s.pumpFanouts()
}

// nodeDrained reports that the node has no busy containers left — the signal
// a draining node's health state waits for.
func (s *Simulator) nodeDrained(n *Node, now time.Duration) bool {
	if n.idx != nil {
		return n.idx.busy == 0
	}
	return s.busyCount(n, now) == 0
}

// drainQueue serves as many queued requests as the node can now take.
func (s *Simulator) drainQueue(node *Node) {
	for len(node.queue) > 0 {
		q := node.queue[0]
		if !s.serve(node, q.fr, q.arrival, q.retries) {
			return
		}
		node.queue = node.queue[1:]
	}
}

// observeExecution feeds each executed meta-operator's (estimate, actual)
// pair back into the estimator — the §6 online-profiling loop. The estimate
// is recomputed from the estimator's *current* state: cached plans carry
// stale step estimates, and learning against those would never converge.
func (s *Simulator) observeExecution(plan *metaop.Plan, src *model.Graph) {
	for i := range plan.Steps {
		st := &plan.Steps[i]
		typ, ok := st.TargetType(src)
		if !ok {
			continue
		}
		var predicted time.Duration
		switch st.Kind {
		case metaop.KindReplace:
			predicted = s.est.ReplaceCost(&st.Dst)
		case metaop.KindReshape:
			srcOp := src.Op(st.SrcID)
			if srcOp == nil {
				continue
			}
			predicted = s.est.ReshapeCost(srcOp, &st.Dst)
		case metaop.KindReduce:
			srcOp := src.Op(st.SrcID)
			if srcOp == nil {
				continue
			}
			predicted = s.est.ReduceCost(srcOp)
		case metaop.KindAdd:
			predicted = s.est.AddCost(&st.Dst)
		default:
			continue
		}
		actual := metaop.StepTrueCost(s.env.Profile, src, st)
		s.est.Observe(typ, predicted, actual)
	}
}

// Estimator exposes the planner's (possibly learning) cost estimator.
func (s *Simulator) Estimator() *cost.Estimator { return s.est }

// Breaker exposes the transform circuit breaker (nil when disabled).
func (s *Simulator) Breaker() *supervisor.Breaker { return s.breaker }

// Health exposes the per-node health tracker (nil when disabled).
func (s *Simulator) Health() *health.Tracker { return s.health }

// Watchdog exposes the supervision watchdog (nil when disabled).
func (s *Simulator) Watchdog() *supervisor.Watchdog { return s.watchdog }

// Nodes exposes the simulated nodes (for tests and reporting).
func (s *Simulator) Nodes() []*Node { return s.nodes }

// HashPlacement spreads fns across n nodes by name hash — the baseline
// placement of traditional serverless platforms (§5.1).
func HashPlacement(fns []string, n int) map[string][]int {
	out := make(map[string][]int, len(fns))
	for _, f := range fns {
		out[f] = []int{int(hash32(f) % uint32(n))}
	}
	return out
}

// SpreadPlacement assigns functions round-robin over nodes in sorted-name
// order, a least-loaded-style static baseline.
func SpreadPlacement(fns []string, n int) map[string][]int {
	sorted := append([]string(nil), fns...)
	sort.Strings(sorted)
	out := make(map[string][]int, len(fns))
	for i, f := range sorted {
		out[f] = []int{i % n}
	}
	return out
}

func hash32(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
