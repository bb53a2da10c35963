package planner

import (
	"fmt"
	"sync"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/model"
)

// Algorithm selects the planning solver.
type Algorithm int

const (
	// AlgoGroup is the linear-time group-based algorithm (Module 2⁺), the
	// production default.
	AlgoGroup Algorithm = iota
	// AlgoHungarian is the basic optimal algorithm via Munkres assignment
	// (Module 2).
	AlgoHungarian
	// AlgoBrute enumerates permutations; usable only for tiny graphs and
	// kept as the optimality oracle for tests.
	AlgoBrute
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoGroup:
		return "group"
	case AlgoHungarian:
		return "hungarian"
	case AlgoBrute:
		return "brute"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Planner computes transformation plans between model graphs.
//
// A planner memoizes a per-model planning index (see modelIndex) the first
// time it plans a graph, keyed by the graph pointer. A graph must therefore
// not change after it is first planned; graphs handed out by the zoo and
// registered with a gateway are immutable, and containers mutate only their
// own clones. The index grows with the number of distinct graphs planned,
// not with the number of pairs. A Planner is safe for concurrent use.
type Planner struct {
	est  *cost.Estimator
	algo Algorithm

	mu  sync.RWMutex
	idx map[*model.Graph]*modelIndex
}

// New returns a planner using the given profiled cost estimates and solver.
func New(est *cost.Estimator, algo Algorithm) *Planner {
	return &Planner{est: est, algo: algo, idx: make(map[*model.Graph]*modelIndex)}
}

// Estimator returns the planner's cost estimator.
func (p *Planner) Estimator() *cost.Estimator { return p.est }

// Plan computes a transformation plan from src to dst, including the
// safeguard decision: if the estimated transformation cost exceeds loading
// dst from scratch, the plan is flagged LoadFromScratch.
func (p *Planner) Plan(src, dst *model.Graph) *metaop.Plan {
	si, di := p.index(src), p.index(dst)
	plan := buildPlan(p.est, si, di, p.mapping(si, di))
	plan.ScratchCost = di.scratch
	if plan.EstCost > plan.ScratchCost {
		plan.LoadFromScratch = true
	}
	return plan
}

func (p *Planner) mapping(si, di *modelIndex) Mapping {
	switch p.algo {
	case AlgoHungarian:
		mx := BuildMatrix(p.est, si.g, di.g)
		rowToCol, _ := hungarian(mx)
		return mappingFromAssignment(mx, rowToCol)
	case AlgoBrute:
		mx := BuildMatrix(p.est, si.g, di.g)
		rowToCol, _ := bruteForce(mx)
		return mappingFromAssignment(mx, rowToCol)
	default:
		return groupMapping(p.est, si, di)
	}
}

// buildPlan converts an operation mapping into an executable meta-operator
// plan: substitutions become Replace/Reshape steps, deletions Reduce steps,
// insertions Add steps, and the edge difference under the mapping becomes
// Edge steps. It counts the steps first and allocates them once, so a plan
// holds no spare capacity, and a plan with no steps keeps Steps nil.
func buildPlan(est *cost.Estimator, si, di *modelIndex, mp Mapping) *metaop.Plan {
	src, dst := si.g, di.g
	sops, dops := src.Ops(), dst.Ops()
	plan := &metaop.Plan{
		SrcName: src.Name, DstName: dst.Name,
		SrcHash: si.hash, DstHash: di.hash,
	}

	// The mapping is injective, so a destination edge (u,v) is kept exactly
	// when its preimage (dstToSrc[u], dstToSrc[v]) is a source edge; every
	// other source edge is removed and every other destination edge added.
	dstToSrc := make([]int, len(dops))
	for j := range dstToSrc {
		dstToSrc[j] = -1
	}
	n := len(mp.Added)
	for i, j := range mp.SrcToDst {
		if j < 0 {
			n++
			continue
		}
		dstToSrc[j] = i
		srcOp, dstOp := sops[i], dops[j]
		switch {
		case srcOp.Shape == dstOp.Shape && srcOp.WeightsID == dstOp.WeightsID:
		case srcOp.Shape == dstOp.Shape:
			n++
		case dstOp.HasWeights():
			n += 2
		default:
			n++
		}
	}
	keptEdge := func(e model.Edge) bool {
		from, to := dstToSrc[e.From], dstToSrc[e.To]
		return from >= 0 && to >= 0 && src.HasEdge(from, to)
	}
	kept := 0
	for _, e := range di.edges {
		if keptEdge(e) {
			kept++
		}
	}
	n += len(si.edges) + len(di.edges) - 2*kept
	if n == 0 {
		return plan
	}

	plan.Steps = make([]metaop.Step, 0, n)
	add := func(s metaop.Step) {
		plan.Steps = append(plan.Steps, s)
		plan.EstCost += s.EstCost
	}
	for i, j := range mp.SrcToDst {
		srcOp := sops[i]
		if j < 0 {
			add(metaop.Step{Kind: metaop.KindReduce, SrcID: i, DstID: -1, EstCost: est.ReduceCost(srcOp)})
			continue
		}
		dstOp := dops[j]
		switch {
		case srcOp.Shape == dstOp.Shape && srcOp.WeightsID == dstOp.WeightsID:
			// Perfect match: zero cost, no step.
		case srcOp.Shape == dstOp.Shape:
			add(metaop.Step{Kind: metaop.KindReplace, SrcID: i, DstID: j, Dst: withID(dstOp, j),
				EstCost: est.ReplaceCost(dstOp)})
		default:
			add(metaop.Step{Kind: metaop.KindReshape, SrcID: i, DstID: j, Dst: withID(dstOp, j),
				EstCost: est.ReshapeCost(srcOp, dstOp)})
			if dstOp.HasWeights() {
				add(metaop.Step{Kind: metaop.KindReplace, SrcID: i, DstID: j, Dst: withID(dstOp, j),
					EstCost: est.ReplaceCost(dstOp)})
			}
		}
	}
	for _, j := range mp.Added {
		add(metaop.Step{Kind: metaop.KindAdd, SrcID: -1, DstID: j, Dst: withID(dops[j], j),
			EstCost: est.AddCost(dops[j])})
	}

	edgeCost := est.EdgeCost(1)
	for _, e := range si.edges {
		if from, to := mp.SrcToDst[e.From], mp.SrcToDst[e.To]; from >= 0 && to >= 0 && dst.HasEdge(from, to) {
			continue
		}
		add(metaop.Step{Kind: metaop.KindEdge, SrcID: -1, DstID: -1,
			EdgeFrom: e.From, EdgeTo: e.To, EdgeAdd: false, EstCost: edgeCost})
	}
	for _, e := range di.edges {
		if !keptEdge(e) {
			add(metaop.Step{Kind: metaop.KindEdge, SrcID: -1, DstID: -1,
				EdgeFrom: e.From, EdgeTo: e.To, EdgeAdd: true, EstCost: edgeCost})
		}
	}
	return plan
}

// withID returns a copy of op with its ID set to the destination slot, so
// executed steps materialize ops with correct destination identifiers.
func withID(op *model.Operation, id int) model.Operation {
	cp := *op
	cp.ID = id
	return cp
}
