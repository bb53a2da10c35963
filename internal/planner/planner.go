package planner

import (
	"fmt"
	"sync"
	"time"

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

	// keysMu guards keys, the match keys interned by every index of the
	// planner: each distinct (type, shape) gets the next ID when an index
	// first sees it. It grows with the number of distinct shapes.
	keysMu sync.Mutex
	keys   map[matchKey]uint32
}

// New returns a planner using the given profiled cost estimates and solver.
func New(est *cost.Estimator, algo Algorithm) *Planner {
	return &Planner{est: est, algo: algo, idx: make(map[*model.Graph]*modelIndex),
		keys: make(map[matchKey]uint32)}
}

// Estimator returns the planner's cost estimator.
func (p *Planner) Estimator() *cost.Estimator { return p.est }

// Cost is a pair's plan reduced to what choosing a donor needs: the plan's
// estimate, its safeguard decision, and what executing it really takes. It
// is exactly what the full plan would report, computed without its steps.
type Cost struct {
	// Est, Scratch and LoadFromScratch are the plan's EstCost, ScratchCost
	// and LoadFromScratch.
	Est, Scratch    time.Duration
	LoadFromScratch bool
	// True is the plan's execution time under the planner's ground-truth
	// profile: the plan's TrueCost.
	True time.Duration
}

// Rank is the estimate a donor is chosen by: the from-scratch load when the
// safeguard falls back to it, else the estimated transformation.
func (c Cost) Rank() time.Duration {
	if c.LoadFromScratch {
		return c.Scratch
	}
	return c.Est
}

// Plan computes a transformation plan from src to dst, including the
// safeguard decision: if the estimated transformation cost exceeds loading
// dst from scratch, the plan is flagged LoadFromScratch.
func (p *Planner) Plan(src, dst *model.Graph) *metaop.Plan {
	d := p.pairing(src, dst).draft()
	plan, _ := d.build()
	return plan
}

// Cost returns the cost of the plan Plan(src, dst) would return, without
// building its steps.
func (p *Planner) Cost(src, dst *model.Graph) Cost {
	d := p.pairing(src, dst).draft()
	return d.cost()
}

// pairing returns src→dst under the current snapshot of the planner's
// estimates.
func (p *Planner) pairing(src, dst *model.Graph) pairing {
	return pairing{algo: p.algo, est: p.est.Snapshot(), si: p.index(src), di: p.index(dst)}
}

// pairing is everything a pair's mapping depends on: both indexes, the
// solver and the estimates snapshot. Mapping it is deterministic, so the
// steps built from a pairing kept since costing are the steps Plan would
// have built at costing time, even if the estimator has learned since.
type pairing struct {
	algo   Algorithm
	est    *cost.Snapshot
	si, di *modelIndex
}

// draft maps the pair.
func (pr pairing) draft() draft {
	return draft{pairing: pr, mp: pr.mapping()}
}

func (pr pairing) mapping() Mapping {
	switch pr.algo {
	case AlgoHungarian:
		mx := buildMatrix(pr.est, pr.si.g, pr.di.g)
		rowToCol, _ := hungarian(mx)
		return mappingFromAssignment(mx, rowToCol)
	case AlgoBrute:
		mx := buildMatrix(pr.est, pr.si.g, pr.di.g)
		rowToCol, _ := bruteForce(mx)
		return mappingFromAssignment(mx, rowToCol)
	default:
		return groupMapping(pr.est.Profile(), pr.si, pr.di)
	}
}

// draft is a mapped pair. Costing it and building its steps price the same
// operation steps; they differ only in how the edge steps are found.
type draft struct {
	pairing
	mp Mapping
}

// cost prices the draft's steps without building them; it counts the edge
// steps instead of finding them.
func (d *draft) cost() Cost {
	c := d.walk(nil)
	edges := d.est.Profile().EdgeCost(d.edgeSteps())
	c.Est += edges
	c.True += edges
	c.LoadFromScratch = c.Est > c.Scratch
	return c
}

// build converts the mapping into an executable meta-operator plan:
// substitutions become Replace/Reshape steps, deletions Reduce steps,
// insertions Add steps, and the edge difference under the mapping becomes
// Edge steps. It counts the steps first and allocates them once, so a plan
// holds no spare capacity, and a plan with no steps keeps Steps nil.
func (d *draft) build() (*metaop.Plan, Cost) {
	src, dst := d.si.g, d.di.g
	plan := &metaop.Plan{
		SrcName: src.Name, DstName: dst.Name,
		SrcHash: d.si.structureHash(), DstHash: d.di.structureHash(),
	}
	sops, dops := src.Ops(), dst.Ops()
	n := len(d.mp.Added)
	for i, j := range d.mp.SrcToDst {
		if j < 0 {
			n++
			continue
		}
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
	n += d.edgeSteps()
	if n > 0 {
		plan.Steps = make([]metaop.Step, 0, n)
	}
	c := d.walk(plan)

	edgeCost := d.est.Profile().EdgeCost(1)
	edge := func(e model.Edge, add bool) {
		c.Est += edgeCost
		c.True += edgeCost
		plan.Steps = append(plan.Steps, metaop.Step{Kind: metaop.KindEdge, SrcID: -1, DstID: -1,
			EdgeFrom: e.From, EdgeTo: e.To, EdgeAdd: add, EstCost: edgeCost})
	}
	for _, e := range d.si.edges {
		if !d.keptSrcEdge(e) {
			edge(e, false)
		}
	}
	dstToSrc := d.inverse()
	for _, e := range d.di.edges {
		if from, to := dstToSrc[e.From], dstToSrc[e.To]; from < 0 || to < 0 || !src.HasEdge(from, to) {
			edge(e, true)
		}
	}
	c.LoadFromScratch = c.Est > c.Scratch
	plan.EstCost, plan.ScratchCost, plan.LoadFromScratch = c.Est, c.Scratch, c.LoadFromScratch
	return plan, c
}

// inverse returns the mapping's destination-to-source direction (-1 for
// added destination ops).
func (d *draft) inverse() []int {
	dstToSrc := make([]int, d.di.g.NumOps())
	for j := range dstToSrc {
		dstToSrc[j] = -1
	}
	for i, j := range d.mp.SrcToDst {
		if j >= 0 {
			dstToSrc[j] = i
		}
	}
	return dstToSrc
}

// edgeSteps counts the draft's Edge steps from one pass over the source
// edges. The mapping is injective, so as many destination edges are kept
// as source edges; every other edge of either graph is one step.
func (d *draft) edgeSteps() int {
	kept := 0
	for _, e := range d.si.edges {
		if d.keptSrcEdge(e) {
			kept++
		}
	}
	return len(d.si.edges) + len(d.di.edges) - 2*kept
}

// keptSrcEdge reports whether source edge e survives into the destination:
// both ends are mapped and their images are joined.
func (d *draft) keptSrcEdge(e model.Edge) bool {
	from, to := d.mp.SrcToDst[e.From], d.mp.SrcToDst[e.To]
	return from >= 0 && to >= 0 && d.di.g.HasEdge(from, to)
}

// walk prices the draft's operation steps in step order, and appends them
// to plan when plan is non-nil. Each step's true cost comes from the
// profile once (an Add's from the index); its estimate is that cost scaled
// by the snapshot.
func (d *draft) walk(plan *metaop.Plan) Cost {
	sops, dops := d.si.g.Ops(), d.di.g.Ops()
	prof := d.est.Profile()
	c := Cost{Scratch: d.di.scratch}
	// step charges one operation step: i and j are its source and
	// destination op IDs (-1 when absent), and it acts on the destination
	// op's type when there is one.
	step := func(kind metaop.Kind, i, j int, actual time.Duration) {
		var est time.Duration
		if j >= 0 {
			est = d.est.Scale(dops[j].Type, actual)
		} else {
			est = d.est.Scale(sops[i].Type, actual)
		}
		c.Est += est
		c.True += actual
		if plan != nil {
			plan.Steps = append(plan.Steps, metaop.Step{Kind: kind, SrcID: i, DstID: j, EstCost: est})
			if j >= 0 {
				// Materialize the destination op with its destination ID in
				// place, so executed steps carry correct identifiers.
				s := &plan.Steps[len(plan.Steps)-1]
				s.Dst = *dops[j]
				s.Dst.ID = j
			}
		}
	}

	for i, j := range d.mp.SrcToDst {
		srcOp := sops[i]
		if j < 0 {
			step(metaop.KindReduce, i, -1, prof.ReduceCost(srcOp))
			continue
		}
		dstOp := dops[j]
		switch {
		case srcOp.Shape == dstOp.Shape && srcOp.WeightsID == dstOp.WeightsID:
			// Perfect match: zero cost, no step.
		case srcOp.Shape == dstOp.Shape:
			step(metaop.KindReplace, i, j, prof.ReplaceCost(dstOp))
		default:
			step(metaop.KindReshape, i, j, prof.ReshapeCost(srcOp, dstOp))
			if dstOp.HasWeights() {
				step(metaop.KindReplace, i, j, prof.ReplaceCost(dstOp))
			}
		}
	}
	for _, j := range d.mp.Added {
		step(metaop.KindAdd, -1, j, d.di.addCost[j])
	}
	return c
}
