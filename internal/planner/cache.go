package planner

import (
	"sync"
	"time"

	"repro/internal/metaop"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Cache implements the planning-strategy cache of §4.4 Module 3: plans are
// computed offline when models register and read back at transformation time,
// so the online path does no planning work. Keys are (source structure hash,
// source weights hash, destination structure hash, destination weights hash)
// — two models with identical structure but different weights transform
// differently (Replace steps), so weights participate in the key.
//
// The cache is sharded by pair key into a power-of-two number of
// independently locked shards, so concurrent lookups from parallel planning
// workers and multi-gateway forwarding never serialize on one mutex (the
// pre-PR-9 hot path). Each shard keeps its own LRU list and singleflight
// table; a pair always hashes to the same shard, so per-pair semantics
// (dedup, eviction, counters) are unchanged.
//
// The cache is optionally bounded: NewCacheBounded evicts the least recently
// used plan once the bound is exceeded. Bounded caches keep a single shard so
// the LRU bound stays globally exact; the unbounded default — what the
// serving path uses — shards DefaultShards ways. Concurrent GetOrPlan calls
// for the same (src, dst) pair are deduplicated via singleflight: exactly one
// caller plans while the rest wait for its result, so a burst of
// registrations never repeats planning work.
//
// A cache may also carry a loader (SetLoader): the multi-gateway control
// plane installs one so a local miss pulls the plan from the pair's ring
// owner instead of re-running the planner — the cross-gateway extension of
// the same singleflight idea. Loader fills are counted as Remote, not
// Planned.
//
// Donor selection needs only a pair's Cost, so an entry can hold a pair
// before its plan exists: GetOrCost on a miss runs the planner's step-free
// cost pass and keeps what the pair's mapping depends on (both planning
// indexes, the solver and the estimates snapshot it was costed under), but
// not the mapping itself. The steps are built on first demand (Costed.Plan,
// or GetOrPlan on the pair) from a mapping recomputed under that snapshot,
// so they are the steps a plan built at costing time would have had. A
// cost-only entry counts against the bound and is evicted like any other;
// Get and Len see only entries whose steps exist.
type Cache struct {
	shards []cacheShard
	mask   uint64

	// idsMu guards ids, the per-graph hash-pair memo shared by all shards.
	// Graphs handed out by the zoo registries are immutable by convention
	// (containers hold clones), so pointer-keyed memoization is safe and makes
	// the online cache lookup O(1) instead of re-hashing both graphs. Reads
	// vastly outnumber writes, hence the RWMutex.
	idsMu sync.RWMutex
	ids   map[*model.Graph]graphID

	// loader, when non-nil, is consulted on a miss before planning locally
	// (inside the singleflight, so at most one loader call per pair is in
	// flight). Set once via SetLoader before the cache sees concurrent use.
	loader func(src, dst *model.Graph) (*metaop.Plan, bool)
}

// DefaultShards is the shard count of an unbounded cache: a power of two
// comfortably above the planning worker-pool sizes the binaries run with.
const DefaultShards = 16

// cacheShard is one independently locked slice of the cache.
type cacheShard struct {
	mu sync.Mutex
	m  map[cacheKey]*lruEntry
	// head/tail order entries most-recently-used first; evictions pop the
	// tail. A hand-rolled list keeps the entry structs pointer-stable and
	// allocation-light.
	head, tail *lruEntry
	// limit bounds len(m); zero means unbounded.
	limit int
	// flights tracks in-progress GetOrPlan computations for singleflight
	// deduplication.
	flights map[cacheKey]*flight

	hits, misses int
	// planned counts step constructions (a full plan, or the steps of a
	// costed pair); costed counts step-free cost passes; deduped counts
	// callers that piggybacked on another goroutine's in-flight computation
	// instead of planning themselves; remote counts plans pulled through the
	// loader instead of planned locally.
	planned, costed, deduped, remote int
	// evictions counts entries dropped by the LRU bound.
	evictions int
	// planTimes is the per-pair planning-time telemetry recorded around every
	// cost pass and step construction: a streaming log-linear digest (O(1)
	// per observation, no retained samples) with exact count/total/max.
	planTimes metrics.DurationDigest
}

type graphID struct{ structure, weights uint64 }

type cacheKey struct {
	src, dst graphID
}

// shardIndex mixes the key's four hashes down to a shard pick. The inputs are
// already avalanche-quality graph hashes, so xor-fold plus a rotation is
// enough to decorrelate the low bits.
func (k cacheKey) shardIndex(mask uint64) uint64 {
	h := k.src.structure ^ k.src.weights<<1 ^ k.dst.structure<<2 ^ k.dst.weights<<3
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h & mask
}

// lruEntry is one cached pair on a shard's recency list. Its fields other
// than key are guarded by the shard's mutex.
type lruEntry struct {
	key cacheKey
	// plan is the pair's plan; nil until its steps are built.
	plan *metaop.Plan
	// cost is the pair's Cost when costed is set.
	cost   Cost
	costed bool
	// pairing builds the steps of a costed pair whose plan is still nil;
	// zero once they are built.
	pairing    pairing
	prev, next *lruEntry
}

// flight is one in-progress computation for a pair; waiters block on done
// and then read the entry it filled.
type flight struct {
	done  chan struct{}
	entry *lruEntry
}

// NewCache returns an empty, unbounded plan cache sharded DefaultShards ways.
func NewCache() *Cache { return NewCacheBounded(0) }

// NewCacheBounded returns an empty plan cache holding at most limit plans
// (LRU-evicted beyond it); limit <= 0 means unbounded. Bounded caches keep a
// single shard so the bound and eviction order are globally exact; unbounded
// caches shard DefaultShards ways.
func NewCacheBounded(limit int) *Cache {
	if limit < 0 {
		limit = 0
	}
	if limit > 0 {
		return NewCacheSharded(limit, 1)
	}
	return NewCacheSharded(0, DefaultShards)
}

// NewCacheSharded returns an empty plan cache with an explicit shard count,
// rounded up to the next power of two (minimum 1). A positive limit is split
// evenly across shards, so it is exact per shard and approximate globally;
// use NewCacheBounded for a globally exact bound.
func NewCacheSharded(limit, shards int) *Cache {
	if limit < 0 {
		limit = 0
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
		ids:    make(map[*model.Graph]graphID),
	}
	perShard := 0
	if limit > 0 {
		perShard = (limit + n - 1) / n
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[cacheKey]*lruEntry)
		s.flights = make(map[cacheKey]*flight)
		s.limit = perShard
	}
	return c
}

// SetLoader installs the remote-fill hook consulted on a local miss before
// planning (the multi-gateway owner-pull protocol). Call it once, before the
// cache sees concurrent use; a nil loader restores local-only planning.
func (c *Cache) SetLoader(loader func(src, dst *model.Graph) (*metaop.Plan, bool)) {
	c.loader = loader
}

// Shards returns the shard count (a power of two).
func (c *Cache) Shards() int { return len(c.shards) }

// idFor memoizes g's hash pair.
func (c *Cache) idFor(g *model.Graph) graphID {
	c.idsMu.RLock()
	id, ok := c.ids[g]
	c.idsMu.RUnlock()
	if ok {
		return id
	}
	id = graphID{structure: g.StructureHash(), weights: g.WeightsHash()}
	c.idsMu.Lock()
	c.ids[g] = id
	c.idsMu.Unlock()
	return id
}

func (c *Cache) keyFor(src, dst *model.Graph) cacheKey {
	return cacheKey{src: c.idFor(src), dst: c.idFor(dst)}
}

func (c *Cache) shardFor(k cacheKey) *cacheShard {
	return &c.shards[k.shardIndex(c.mask)]
}

// moveToFront must be called with s.mu held.
func (s *cacheShard) moveToFront(e *lruEntry) {
	if s.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if s.tail == e {
		s.tail = e.prev
	}
	// Push front.
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// lookup must be called with s.mu held. It returns the pair's entry
// (freshening its LRU position) or else another goroutine's in-flight
// computation of the pair, and counts either as a hit, the wait also as
// Deduped. Finding neither counts a miss: the caller computes the pair, so
// Misses counts exactly the pairs computed or loaded, whatever the timing.
func (s *cacheShard) lookup(k cacheKey) (*lruEntry, *flight) {
	if e, ok := s.m[k]; ok {
		s.hits++
		s.moveToFront(e)
		return e, nil
	}
	if f, ok := s.flights[k]; ok {
		s.hits++
		s.deduped++
		return nil, f
	}
	s.misses++
	return nil, nil
}

// insert must be called with s.mu held; it stores (or refreshes) the pair's
// plan, cost and pairing from v and applies the LRU bound.
func (s *cacheShard) insert(k cacheKey, v lruEntry) *lruEntry {
	e, ok := s.m[k]
	if !ok {
		e = &lruEntry{key: k}
		s.m[k] = e
	}
	e.plan, e.cost, e.costed, e.pairing = v.plan, v.cost, v.costed, v.pairing
	s.moveToFront(e)
	if ok {
		return e
	}
	for s.limit > 0 && len(s.m) > s.limit {
		back := s.tail
		if back == nil {
			break
		}
		if back.prev != nil {
			back.prev.next = nil
		}
		s.tail = back.prev
		if s.head == back {
			s.head = nil
		}
		delete(s.m, back.key)
		s.evictions++
	}
	return e
}

// Get returns the cached plan for src→dst, if any. A pair that is only
// costed has no plan yet and counts as a miss. Get never consults the
// loader: it reports strictly local occupancy.
func (c *Cache) Get(src, dst *model.Graph) (*metaop.Plan, bool) {
	k := c.keyFor(src, dst)
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[k]; ok && e.plan != nil {
		s.hits++
		s.moveToFront(e)
		return e.plan, true
	}
	s.misses++
	return nil, false
}

// Put stores a plan for src→dst. The pair's Cost is derived from the plan
// when it is next asked for.
func (c *Cache) Put(src, dst *model.Graph, p *metaop.Plan) {
	k := c.keyFor(src, dst)
	s := c.shardFor(k)
	s.mu.Lock()
	s.insert(k, lruEntry{plan: p})
	s.mu.Unlock()
}

// GetOrPlan returns the cached plan, pulls it through the loader (when one is
// installed), or computes and caches one with pl. A pair that is only costed
// gets its steps built from its pairing. Concurrent calls for the same pair
// resolve it exactly once: the first caller loads or plans, the rest wait
// for its result (singleflight).
func (c *Cache) GetOrPlan(pl *Planner, src, dst *model.Graph) *metaop.Plan {
	return c.getOrPlan(pl, src, dst, c.loader)
}

// GetOrPlanLocal is GetOrPlan without the loader: a miss always plans
// locally. The control plane uses it on the ring owner so an owner-side miss
// never forwards again (plan pulls are one hop, by construction).
func (c *Cache) GetOrPlanLocal(pl *Planner, src, dst *model.Graph) *metaop.Plan {
	return c.getOrPlan(pl, src, dst, nil)
}

func (c *Cache) getOrPlan(pl *Planner, src, dst *model.Graph, loader func(src, dst *model.Graph) (*metaop.Plan, bool)) *metaop.Plan {
	k := c.keyFor(src, dst)
	s := c.shardFor(k)
	s.mu.Lock()
	e, f := s.lookup(k)
	switch {
	case e != nil:
		if p := e.plan; p != nil {
			s.mu.Unlock()
			return p
		}
		s.mu.Unlock()
		return s.steps(e)
	case f != nil:
		s.mu.Unlock()
		<-f.done
		return s.steps(f.entry)
	}
	f = &flight{done: make(chan struct{})}
	s.flights[k] = f
	s.mu.Unlock()

	if e := s.load(k, f, loader, src, dst); e != nil {
		return e.plan
	}

	t0 := time.Now() //optimus:allow wallclock — telemetry: measures real planning cost, never enters simulated time
	d := pl.pairing(src, dst).draft()
	p, cst := d.build()
	took := time.Since(t0) //optimus:allow wallclock — telemetry: pairs with the time.Now above

	s.mu.Lock()
	f.entry = s.insert(k, lruEntry{plan: p, cost: cst, costed: true})
	delete(s.flights, k)
	s.planned++
	s.planTimes.Observe(took)
	s.mu.Unlock()
	close(f.done)
	return p
}

// Costed is one pair's Cost as the cache holds it. Plan returns the pair's
// plan, building its steps on first demand. The zero Costed holds no pair.
type Costed struct {
	Cost
	s *cacheShard
	e *lruEntry
}

// Valid reports whether k holds a pair (is not the zero Costed).
func (k Costed) Valid() bool { return k.e != nil }

// Plan returns the costed pair's plan: the cached one, or steps built now
// from the pair's pairing and cached. It counts no lookup and leaves LRU
// recency alone, and it works even if the pair was evicted since it was
// costed.
func (k Costed) Plan() *metaop.Plan { return k.s.steps(k.e) }

// GetOrCost returns the Cost of src→dst: from the cached entry, from a plan
// pulled through the loader (when one is installed), or from the planner's
// step-free cost pass, whose pairing the cache keeps for building the
// steps later. It touches hit/miss counters and LRU recency exactly as
// GetOrPlan does, and a pair whose plan is cached takes its Cost from that
// plan.
// Concurrent calls for the same pair resolve it once (singleflight, shared
// with GetOrPlan).
func (c *Cache) GetOrCost(pl *Planner, src, dst *model.Graph) Costed {
	k := c.keyFor(src, dst)
	s := c.shardFor(k)
	s.mu.Lock()
	e, f := s.lookup(k)
	switch {
	case e != nil:
		if e.costed {
			cst := e.cost
			s.mu.Unlock()
			return Costed{Cost: cst, s: s, e: e}
		}
		s.mu.Unlock()
		return s.costOf(pl, e, src)
	case f != nil:
		s.mu.Unlock()
		<-f.done
		return s.costOf(pl, f.entry, src)
	}
	f = &flight{done: make(chan struct{})}
	s.flights[k] = f
	s.mu.Unlock()

	if e := s.load(k, f, c.loader, src, dst); e != nil {
		return s.costOf(pl, e, src)
	}

	t0 := time.Now() //optimus:allow wallclock — telemetry: measures real planning cost, never enters simulated time
	pr := pl.pairing(src, dst)
	d := pr.draft()
	cst := d.cost()
	took := time.Since(t0) //optimus:allow wallclock — telemetry: pairs with the time.Now above

	s.mu.Lock()
	e = s.insert(k, lruEntry{cost: cst, costed: true, pairing: pr})
	f.entry = e
	delete(s.flights, k)
	s.costed++
	s.planTimes.Observe(took)
	s.mu.Unlock()
	close(f.done)
	return Costed{Cost: cst, s: s, e: e}
}

// load resolves the in-flight miss f through the loader, if one is
// installed and has the plan: it caches the pulled plan, lands the flight
// and returns the entry. It returns nil when the caller must compute the
// pair itself.
func (s *cacheShard) load(k cacheKey, f *flight, loader func(src, dst *model.Graph) (*metaop.Plan, bool), src, dst *model.Graph) *lruEntry {
	if loader == nil {
		return nil
	}
	p, ok := loader(src, dst)
	if !ok {
		return nil
	}
	s.mu.Lock()
	e := s.insert(k, lruEntry{plan: p})
	f.entry = e
	delete(s.flights, k)
	s.remote++
	s.mu.Unlock()
	close(f.done)
	return e
}

// steps returns e's plan, building it from e's pairing if it has none yet:
// the mapping is recomputed into a local draft, so the entry never holds
// one. Concurrent builders may race; the first to publish wins.
func (s *cacheShard) steps(e *lruEntry) *metaop.Plan {
	s.mu.Lock()
	p, pr := e.plan, e.pairing
	s.mu.Unlock()
	if p != nil {
		return p
	}
	t0 := time.Now() //optimus:allow wallclock — telemetry: measures real planning cost, never enters simulated time
	d := pr.draft()
	p, _ = d.build()
	took := time.Since(t0) //optimus:allow wallclock — telemetry: pairs with the time.Now above
	s.mu.Lock()
	if e.plan == nil {
		e.plan, e.pairing = p, pairing{}
		s.planned++
		s.planTimes.Observe(took)
	} else {
		p = e.plan
	}
	s.mu.Unlock()
	return p
}

// costOf returns e's Cost, deriving it from e's plan (whose true cost is
// taken under pl's profile) if the pair was never costed.
func (s *cacheShard) costOf(pl *Planner, e *lruEntry, src *model.Graph) Costed {
	s.mu.Lock()
	cst, ok, p := e.cost, e.costed, e.plan
	s.mu.Unlock()
	if !ok {
		cst = Cost{Est: p.EstCost, Scratch: p.ScratchCost, LoadFromScratch: p.LoadFromScratch,
			True: p.TrueCost(pl.est.Profile(), src)}
		s.mu.Lock()
		if e.plan == p {
			e.cost, e.costed = cst, true
		}
		s.mu.Unlock()
	}
	return Costed{Cost: cst, s: s, e: e}
}

// FlightsQuiesce waits until a moment with no in-flight GetOrPlan or
// GetOrCost computations: every singleflight started before the call has
// landed its entry in the cache. The control plane's drain handoff calls it
// so a draining gateway's cache enumeration misses nothing mid-computation.
// Callers must fence new work themselves (a drained member receives none).
func (c *Cache) FlightsQuiesce() {
	for {
		var pending []*flight
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			for _, f := range s.flights {
				pending = append(pending, f) //optimus:allow maprange — wait-set only: every collected flight is awaited, so order cannot affect state
			}
			s.mu.Unlock()
		}
		if len(pending) == 0 {
			return
		}
		for _, f := range pending {
			<-f.done
		}
	}
}

// Len returns the number of cached plans: entries whose steps exist, as Get
// sees them. Counters.Size also counts pairs that are only costed.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head; e != nil; e = e.next {
			if e.plan != nil {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Stats returns cache hit and miss counts.
func (c *Cache) Stats() (hits, misses int) {
	ct := c.Counters()
	return ct.Hits, ct.Misses
}

// Counters is a point-in-time snapshot of the cache's bookkeeping, summed
// across shards.
type Counters struct {
	// Hits/Misses count lookups (Get and the read side of GetOrPlan and
	// GetOrCost). A GetOrPlan or GetOrCost caller that finds another
	// goroutine's computation of the pair in flight waits for it and counts
	// as a hit, so Misses counts the pairs computed or loaded, and neither
	// count depends on how concurrent callers interleave.
	Hits, Misses int
	// Planned counts step constructions: plans computed by GetOrPlan on a
	// miss, and steps built for a costed pair (Costed.Plan, or GetOrPlan
	// hitting a cost-only entry). Costed counts step-free cost passes run by
	// GetOrCost on a miss. Deduped counts the hits that waited on another
	// goroutine's in-flight computation (singleflight), so unlike the rest it
	// depends on timing; Remote counts plans pulled through the loader (the
	// cross-gateway owner-pull path) instead of computed locally. Every miss
	// of GetOrPlan or GetOrCost is resolved by exactly one of a full plan, a
	// cost pass or Remote.
	Planned, Costed, Deduped, Remote int
	// Evictions counts entries dropped by the LRU bound; Size and Limit
	// describe the current occupancy, cost-only entries included (Limit 0 =
	// unbounded; a sharded bound is the per-shard limit times the shard
	// count).
	Evictions, Size, Limit int
	// Shards is the shard count (a power of two; 1 for bounded caches).
	Shards int
}

// Counters returns the cache's counter snapshot.
func (c *Cache) Counters() Counters {
	out := Counters{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Planned += s.planned
		out.Costed += s.costed
		out.Deduped += s.deduped
		out.Remote += s.remote
		out.Evictions += s.evictions
		out.Size += len(s.m)
		out.Limit += s.limit
		s.mu.Unlock()
	}
	return out
}

// PlanTimeStats is a snapshot of the per-pair planning-time telemetry.
type PlanTimeStats struct {
	// Count is the exact number of timed planning operations (step
	// constructions plus cost passes: Planned+Costed); Total and Max are the
	// exact sum and maximum of their durations.
	Count      int
	Total, Max time.Duration
	// P50/P95/P99 are streaming-digest percentiles (nearest-rank semantics,
	// ≤3.1% relative bucket error, P100-equivalent clamped to the exact max).
	P50, P95, P99 time.Duration
}

// PlanTimes summarizes the per-pair planning-time telemetry recorded by
// GetOrPlan, GetOrCost and Costed.Plan, merging the per-shard streaming digests. O(1) in the number of
// plans: no samples are retained or sorted.
func (c *Cache) PlanTimes() PlanTimeStats {
	var merged metrics.DurationDigest
	count := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		d := s.planTimes
		count += s.planned + s.costed
		s.mu.Unlock()
		merged.Merge(&d)
	}
	return PlanTimeStats{
		Count: count,
		Total: merged.Total(),
		Max:   merged.Max(),
		P50:   merged.Percentile(50),
		P95:   merged.Percentile(95),
		P99:   merged.Percentile(99),
	}
}
