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
// workers and serving goroutines never serialize on one mutex. Each shard
// keeps its own LRU list and singleflight table; a pair always hashes to the
// same shard, so per-pair semantics (dedup, eviction, counters) are
// unchanged.
//
// The cache is optionally bounded: NewCacheBounded evicts the least recently
// used plan once the bound is exceeded. Bounded caches keep a single shard so
// the LRU bound stays globally exact; the unbounded default — what the
// serving path uses — shards DefaultShards ways. Concurrent GetOrPlan calls
// for the same (src, dst) pair are deduplicated via singleflight: exactly one
// caller plans while the rest wait for its result, so a burst of
// registrations never repeats planning work.
//
// Every entry holds its pair's Cost. Donor selection needs only that, so an
// entry can hold a pair before its plan exists: GetOrCost on a miss runs the
// planner's step-free cost pass and keeps what the pair's mapping depends on
// (both planning indexes, the solver and the estimates snapshot it was
// costed under), but not the mapping itself. The steps are built on first
// demand (Costed.Plan, or GetOrPlan on the pair) from a mapping recomputed
// under that snapshot, so they are the steps a plan built at costing time
// would have had. A cost-only entry counts against the bound and is evicted
// like any other.
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
	// instead of planning themselves.
	planned, costed, deduped int
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
	key  cacheKey
	cost Cost
	// plan is the pair's plan; nil until its steps are built.
	plan *metaop.Plan
	// pairing builds the steps while plan is nil; zero once they are built.
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
// Misses counts exactly the pairs computed, whatever the timing.
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
// cost, plan and pairing from v and applies the LRU bound. An entry whose
// steps are built keeps them unless v brings steps too, so no entry has its
// steps built twice.
func (s *cacheShard) insert(k cacheKey, v lruEntry) *lruEntry {
	e, ok := s.m[k]
	if !ok {
		e = &lruEntry{key: k}
		s.m[k] = e
	}
	if e.plan == nil || v.plan != nil {
		e.cost, e.plan, e.pairing = v.cost, v.plan, v.pairing
	}
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

// Get returns the pair src→dst as this cache holds it, whether or not its
// steps are built. It is a probe, not a lookup: it counts no hit or miss and
// leaves LRU recency alone.
func (c *Cache) Get(src, dst *model.Graph) (Costed, bool) {
	k := c.keyFor(src, dst)
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[k]
	if !ok {
		return Costed{}, false
	}
	return Costed{Cost: e.cost, s: s, e: e}, true
}

// GetOrPlan returns the pair's plan: the cached one, steps built now for a
// pair held without them, or a plan computed and cached with pl. Concurrent
// calls for the same pair resolve it exactly once: the first caller plans,
// the rest wait for its result (singleflight).
func (c *Cache) GetOrPlan(pl *Planner, src, dst *model.Graph) *metaop.Plan {
	k := c.keyFor(src, dst)
	s := c.shardFor(k)
	s.mu.Lock()
	e, f := s.lookup(k)
	switch {
	case e != nil:
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

	t0 := time.Now() //optimus:allow wallclock — telemetry: measures real planning cost, never enters simulated time
	d := pl.pairing(src, dst).draft()
	p, cst := d.build()
	took := time.Since(t0) //optimus:allow wallclock — telemetry: pairs with the time.Now above

	s.mu.Lock()
	f.entry = s.insert(k, lruEntry{cost: cst, plan: p})
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

// GetOrCost returns the Cost of src→dst: from the cached entry, or from the
// planner's step-free cost pass, whose pairing the cache keeps for building
// the steps later. It touches hit/miss counters and LRU recency exactly as
// GetOrPlan does. Concurrent calls for the same pair resolve it once
// (singleflight, shared with GetOrPlan).
func (c *Cache) GetOrCost(pl *Planner, src, dst *model.Graph) Costed {
	k := c.keyFor(src, dst)
	s := c.shardFor(k)
	s.mu.Lock()
	e, f := s.lookup(k)
	switch {
	case e != nil:
		cst := e.cost
		s.mu.Unlock()
		return Costed{Cost: cst, s: s, e: e}
	case f != nil:
		s.mu.Unlock()
		<-f.done
		return s.handle(f.entry)
	}
	f = &flight{done: make(chan struct{})}
	s.flights[k] = f
	s.mu.Unlock()

	t0 := time.Now() //optimus:allow wallclock — telemetry: measures real planning cost, never enters simulated time
	pr := pl.pairing(src, dst)
	d := pr.draft()
	cst := d.cost()
	took := time.Since(t0) //optimus:allow wallclock — telemetry: pairs with the time.Now above

	s.mu.Lock()
	e = s.insert(k, lruEntry{cost: cst, pairing: pr})
	f.entry = e
	delete(s.flights, k)
	s.costed++
	s.planTimes.Observe(took)
	s.mu.Unlock()
	close(f.done)
	return Costed{Cost: cst, s: s, e: e}
}

// handle returns the Costed of e, an entry of s.
func (s *cacheShard) handle(e *lruEntry) Costed {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Costed{Cost: e.cost, s: s, e: e}
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

// Stats returns cache hit and miss counts.
func (c *Cache) Stats() (hits, misses int) {
	ct := c.Counters()
	return ct.Hits, ct.Misses
}

// Counters is a point-in-time snapshot of the cache's bookkeeping, summed
// across shards.
type Counters struct {
	// Hits/Misses count lookups: the read side of GetOrPlan and GetOrCost
	// (Get is a probe and counts neither). A caller that finds another
	// goroutine's computation of the pair in flight waits for it and counts
	// as a hit, so Misses counts the pairs computed, and neither count
	// depends on how concurrent callers interleave.
	Hits, Misses int
	// Planned counts step constructions: plans computed by GetOrPlan on a
	// miss, and steps built for a cost-only pair (Costed.Plan, or GetOrPlan
	// on it). Costed counts step-free cost passes run by GetOrCost on a miss.
	// Deduped counts the hits that waited on another goroutine's in-flight
	// computation (singleflight), so unlike the rest it depends on timing.
	// Every miss of GetOrPlan or GetOrCost is resolved by exactly one full
	// plan or cost pass, so Planned+Costed counts the pairs this cache
	// planned first (Misses) plus the steps it built later.
	Planned, Costed, Deduped int
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
