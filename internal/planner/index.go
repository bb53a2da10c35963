package planner

import (
	"cmp"
	"slices"
	"sync"
	"time"

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
	// runs lists the match keys of g's ops in ascending order, each with
	// where its ops start in byWeights and byShape; a final entry holds
	// their length. byShape lists each key's ops in topological order,
	// byWeights the same ops stably sorted by WeightsID: the group
	// matcher's first two passes.
	runs               []keyRun
	byWeights, byShape []int32
	// addCost[j] is the true cost of adding op j under the planner's
	// profile.
	addCost []time.Duration
	// edges is g.Edges(), sorted by (From, To).
	edges []model.Edge
	// hashOnce guards hash, g.StructureHash(), computed on first use: only
	// built plans carry it, so cost passes never hash.
	hashOnce sync.Once
	hash     uint64
	// scratch is the estimated cost of loading g from scratch.
	scratch time.Duration
}

// keyRun is one match key of a model and where its ops start.
type keyRun struct {
	key   uint32
	start int32
}

// matchKey is what two ops must share to be matched without a Reshape.
type matchKey struct {
	typ   model.OpType
	shape model.Shape
}

func (p *Planner) newModelIndex(g *model.Graph) *modelIndex {
	order := topoOrder(g)
	ix := &modelIndex{
		g:       g,
		edges:   g.Edges(),
		scratch: p.est.ModelLoad(g),
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

	prof := p.est.Profile()
	ix.addCost = make([]time.Duration, len(ops))
	for j, op := range ops {
		ix.addCost[j] = prof.AddCost(op)
	}

	// Sort the per-type order by key, breaking ties by position: equal keys
	// imply equal types, so each key's ops stay in topological order.
	sorted := make([]uint64, len(byType))
	p.keysMu.Lock()
	for n, id := range byType {
		op := ops[id]
		k := matchKey{op.Type, op.Shape}
		key, ok := p.keys[k]
		if !ok {
			key = uint32(len(p.keys))
			p.keys[k] = key
		}
		sorted[n] = uint64(key)<<32 | uint64(n)
	}
	p.keysMu.Unlock()
	slices.Sort(sorted)
	ix.byShape = make([]int32, len(sorted))
	for n, kn := range sorted {
		key := uint32(kn >> 32)
		ix.byShape[n] = byType[uint32(kn)]
		if n == 0 || key != ix.runs[len(ix.runs)-1].key {
			ix.runs = append(ix.runs, keyRun{key: key, start: int32(n)})
		}
	}
	ix.runs = append(ix.runs, keyRun{start: int32(len(sorted))})
	ix.byWeights = slices.Clone(ix.byShape)
	for r := range ix.runs[:len(ix.runs)-1] {
		slices.SortStableFunc(ix.byWeights[ix.runs[r].start:ix.runs[r+1].start], func(a, b int32) int {
			return cmp.Compare(ops[a].WeightsID, ops[b].WeightsID)
		})
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
	ix = p.newModelIndex(g)
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
