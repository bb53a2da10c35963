package planner

import (
	"slices"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/model"
)

// modelIndex is the per-model half of planning: everything Plan needs about
// one graph that does not depend on the other graph of the pair. A Planner
// builds it the first time it sees a graph and reuses it for every pair the
// graph takes part in, so a pair pays only for the matching itself.
type modelIndex struct {
	g *model.Graph
	// byType[t] lists the IDs of the ops of type t in topological order (the
	// group matcher's per-type groups and its sequential final pass).
	byType [][]int32
	// byKey[pass] lists every op ID in topological order, stably sorted by
	// the pass's match key (see compareKey): the merge-join order of the
	// group matcher's first two passes.
	byKey [2][]int32
	// edges is g.Edges(), sorted by (From, To).
	edges []model.Edge
	// hashOnce guards hash, g.StructureHash(), computed on first use: only
	// built plans carry it, so cost passes never hash.
	hashOnce sync.Once
	hash     uint64
	// scratch is the estimated cost of loading g from scratch.
	scratch time.Duration
}

func newModelIndex(est *cost.Estimator, g *model.Graph) *modelIndex {
	order := topoOrder(g)
	ix := &modelIndex{
		g:       g,
		edges:   g.Edges(),
		scratch: est.ModelLoad(g),
	}

	// One backing array holds the per-type groups back to back: a stable
	// sort of the topological order by type.
	ops := g.Ops()
	maxType := 0
	for _, op := range ops {
		maxType = max(maxType, int(op.Type))
	}
	counts := make([]int, maxType+1)
	for _, op := range ops {
		counts[op.Type]++
	}
	byType := make([]int32, len(order))
	ix.byType = make([][]int32, len(counts))
	start := 0
	for t, n := range counts {
		ix.byType[t] = byType[start : start : start+n]
		start += n
	}
	for _, id := range order {
		t := ops[id].Type
		ix.byType[t] = append(ix.byType[t], int32(id))
	}

	for pass := range ix.byKey {
		keyed := append([]int32(nil), byType...)
		slices.SortStableFunc(keyed, func(a, b int32) int {
			return compareKey(ops[a], ops[b], pass)
		})
		ix.byKey[pass] = keyed
	}
	return ix
}

// structureHash returns g.StructureHash(), hashing on first call only.
func (ix *modelIndex) structureHash() uint64 {
	ix.hashOnce.Do(func() { ix.hash = ix.g.StructureHash() })
	return ix.hash
}

// index returns g's planning index, building it on first use. Concurrent
// first uses may each build one; the first to publish wins and every caller
// returns that one, so all plans of a graph read the same index.
func (p *Planner) index(g *model.Graph) *modelIndex {
	p.mu.RLock()
	ix := p.idx[g]
	p.mu.RUnlock()
	if ix != nil {
		return ix
	}
	ix = newModelIndex(p.est, g)
	p.mu.Lock()
	if prev := p.idx[g]; prev != nil {
		ix = prev
	} else {
		p.idx[g] = ix
	}
	p.mu.Unlock()
	return ix
}

// topoOrder returns a topological order, falling back to ID order if the
// graph is (unexpectedly) cyclic; planners must not fail on zoo output,
// which is always validated acyclic.
func topoOrder(g *model.Graph) []int {
	order, err := g.TopoSort()
	if err != nil {
		order = make([]int, g.NumOps())
		for i := range order {
			order[i] = i
		}
	}
	return order
}
