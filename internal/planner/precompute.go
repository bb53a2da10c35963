package planner

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/model"
)

// Precomputer is the parallel offline-planning pipeline behind §4.4's
// planning-strategy cache: pairwise cost passes are fanned across a bounded
// worker pool so a model registration returns immediately and the warm-up
// saturates every core instead of running serially on the registration
// path. Each pair is cached with its Cost and pairing, not its steps:
// serving reads only the cost, and the steps are built on first demand.
// Deduplication is inherited from the cache's singleflight, so concurrent
// registrations (or an online request racing the pipeline) never plan the
// same pair twice.
//
// Workers are started lazily and exit when the queue drains, so an idle
// Precomputer holds no goroutines and needs no Close.
type Precomputer struct {
	pl      *Planner
	cache   *Cache
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []pair
	active int
	// outstanding counts enqueued-but-unfinished pairs; Quiesce waits for
	// it to reach zero.
	outstanding int
	enqueued    int
	completed   int
	peakQueue   int
}

type pair struct{ src, dst *model.Graph }

// NewPrecomputer returns a precompute engine planning with pl into cache,
// running at most workers plans concurrently. workers <= 0 defaults to
// GOMAXPROCS.
func NewPrecomputer(pl *Planner, cache *Cache, workers int) *Precomputer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Precomputer{pl: pl, cache: cache, workers: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Planner returns the underlying planner.
func (p *Precomputer) Planner() *Planner { return p.pl }

// Cache returns the plan cache the pipeline fills.
func (p *Precomputer) Cache() *Cache { return p.cache }

// Enqueue schedules the src→dst cost pass for background computation and
// returns immediately. Pairs already cached (or currently being planned by
// anyone) cost one cheap cache probe in the worker.
func (p *Precomputer) Enqueue(src, dst *model.Graph) {
	p.mu.Lock()
	p.queue = append(p.queue, pair{src, dst})
	if len(p.queue) > p.peakQueue {
		p.peakQueue = len(p.queue)
	}
	p.outstanding++
	p.enqueued++
	if p.active < p.workers {
		p.active++
		go p.drain()
	}
	p.mu.Unlock()
}

// EnqueueAll schedules both plan directions between m and every model in
// others — the 2·(N−1) pairs a registration owes the plan cache.
func (p *Precomputer) EnqueueAll(m *model.Graph, others []*model.Graph) {
	for _, o := range others {
		if o == m {
			continue
		}
		p.Enqueue(o, m)
		p.Enqueue(m, o)
	}
}

// PrecomputeAll costs every ordered pair of models and waits for completion
// — the bulk warm-up a repository reopen performs.
func (p *Precomputer) PrecomputeAll(models []*model.Graph) {
	for i, a := range models {
		for j, b := range models {
			if i != j {
				p.Enqueue(a, b)
			}
		}
	}
	p.Quiesce()
}

// drain runs on a worker goroutine: it costs queued pairs until the queue
// is empty, then exits (a later Enqueue starts a fresh worker).
func (p *Precomputer) drain() {
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.active--
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()

		// The cost pass only: serving reads a pair's Cost, and its steps
		// are built on first demand.
		p.cache.GetOrCost(p.pl, t.src, t.dst)

		p.mu.Lock()
		p.outstanding--
		p.completed++
		if p.outstanding == 0 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
}

// Quiesce blocks until every pair enqueued so far has been costed. Pairs
// enqueued concurrently with Quiesce extend the wait.
func (p *Precomputer) Quiesce() {
	p.mu.Lock()
	for p.outstanding > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Ready reports whether the pipeline has no outstanding work: every enqueued
// pair is in the cache (or was deduplicated against an identical pair).
func (p *Precomputer) Ready() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outstanding == 0
}

// PrecomputeStats is a point-in-time snapshot of the pipeline.
type PrecomputeStats struct {
	// Workers is the pool bound; Active the workers currently running.
	Workers, Active int
	// Enqueued/Completed/Pending count pairs over the pipeline's lifetime;
	// PeakQueue is the deepest the backlog ever got.
	Enqueued, Completed, Pending int
	PeakQueue                    int
	// PlanTimeTotal/PlanTimeMax aggregate per-pair planning time across the
	// shared cache (including inline fallbacks and step builds); Planned
	// counts the timed operations (the cache's Planned+Costed).
	PlanTimeTotal, PlanTimeMax time.Duration
	Planned                    int
}

// Stats returns the pipeline snapshot.
func (p *Precomputer) Stats() PrecomputeStats {
	p.mu.Lock()
	st := PrecomputeStats{
		Workers: p.workers, Active: p.active,
		Enqueued: p.enqueued, Completed: p.completed, Pending: p.outstanding,
		PeakQueue: p.peakQueue,
	}
	p.mu.Unlock()
	pt := p.cache.PlanTimes()
	st.PlanTimeTotal, st.PlanTimeMax, st.Planned = pt.Total, pt.Max, pt.Count
	return st
}
