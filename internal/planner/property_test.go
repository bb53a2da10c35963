package planner

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/model"
)

// randomGraph builds a random small sequential-with-branches model graph
// from the given seed: a chain of conv/relu/bn/pool/dense ops with random
// shapes, plus occasional residual edges. Always valid (acyclic, weighted
// ops shaped).
func randomGraph(name string, seed int64, maxOps int) *model.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := model.NewBuilder(name, "prop", name)
	n := 2 + rng.Intn(maxOps)
	width := 4 << rng.Intn(3)
	b.Input(width)
	prev := []int{0}
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			k := 1 + rng.Intn(4)
			out := 4 << rng.Intn(4)
			b.Conv("c", k, width, out, 1+rng.Intn(2))
			width = out
		case 2:
			b.ReLU("r", width)
		case 3:
			b.BN("bn", width)
		default:
			b.MaxPool("p", 2, width, 2)
		}
		// Occasional residual edge from an earlier op.
		if rng.Intn(4) == 0 && len(prev) > 1 {
			from := prev[rng.Intn(len(prev))]
			to := b.Tail()[0]
			if from < to {
				b.Graph().Connect(from, to)
			}
		}
		prev = append(prev, b.Tail()[0])
	}
	b.Dense("fc", width, 10)
	b.Output(10)
	return b.Graph()
}

// TestQuickPlansAlwaysVerify: for arbitrary random graph pairs, both the
// group and the Hungarian planner produce plans whose execution reproduces
// the destination model exactly.
func TestQuickPlansAlwaysVerify(t *testing.T) {
	prof := cost.CPU()
	est := cost.Exact(prof)
	group := New(est, AlgoGroup)
	hung := New(est, AlgoHungarian)

	f := func(seedA, seedB int64) bool {
		src := randomGraph("src", seedA, 14)
		dst := randomGraph("dst", seedB, 14)
		if src.Validate() != nil || dst.Validate() != nil {
			return false
		}
		for _, pl := range []*Planner{group, hung} {
			p := pl.Plan(src, dst)
			if err := metaop.Verify(prof, p, src, dst); err != nil {
				t.Logf("verify failed (%v): %v", pl.algo, err)
				return false
			}
			// Cost sanity: estimated cost is non-negative and the safeguard
			// flag is consistent with it.
			if p.EstCost < 0 {
				return false
			}
			if p.LoadFromScratch != (p.EstCost > p.ScratchCost) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHungarianNeverWorseOnNodeCost: the Munkres solution's node-level
// mapping cost is ≤ the group heuristic's, for arbitrary pairs (Hungarian is
// optimal for the assignment relaxation).
func TestQuickHungarianNeverWorseOnNodeCost(t *testing.T) {
	est := cost.Exact(cost.CPU())
	f := func(seedA, seedB int64) bool {
		src := randomGraph("src", seedA, 12)
		dst := randomGraph("dst", seedB, 12)
		mx := BuildMatrix(est, src, dst)
		rowToCol, _ := hungarian(mx)
		hMap := mappingFromAssignment(mx, rowToCol)
		pl := New(est, AlgoGroup)
		gMap := groupMapping(est.Profile(), pl.index(src), pl.index(dst))
		hCost := MappingCost(est, src, dst, hMap)
		gCost := MappingCost(est, src, dst, gMap)
		return hCost <= gCost+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSelfTransformIsFree: transforming any graph into itself costs
// nothing under both planners.
func TestQuickSelfTransformIsFree(t *testing.T) {
	est := cost.Exact(cost.CPU())
	group := New(est, AlgoGroup)
	hung := New(est, AlgoHungarian)
	f := func(seed int64) bool {
		g := randomGraph("g", seed, 16)
		return group.Plan(g, g).EstCost == 0 && hung.Plan(g, g).EstCost == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReplaceOnlyForReweighted: transforming a graph into a
// reweighted clone of itself uses only Replace steps under both planners.
func TestQuickReplaceOnlyForReweighted(t *testing.T) {
	est := cost.Exact(cost.CPU())
	group := New(est, AlgoGroup)
	hung := New(est, AlgoHungarian)
	f := func(seed int64) bool {
		src := randomGraph("g", seed, 14)
		dst := src.Clone()
		for _, op := range dst.Ops() {
			if op.HasWeights() {
				op.WeightsID = model.WeightsIDFor("other", op.Name)
			}
		}
		for _, pl := range []*Planner{group, hung} {
			p := pl.Plan(src, dst)
			for _, s := range p.Steps {
				if s.Kind != metaop.KindReplace {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
