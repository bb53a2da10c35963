package planner

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/model"
)

// crosscheckZoo is a table of named ≤5-op graphs chosen so every ordered
// pair's cost matrix stays within bruteForceLimit and so the pairs exercise
// each of the group matcher's passes: zero-cost shape+weights matches,
// shape-only matches (Replace), sequential reshapes, and the
// un-reshapeable extreme-ratio skip that falls through to Add/Reduce.
func crosscheckZoo() []*model.Graph {
	a := chain("a", convOp("c1", 3, 8, 8), reluOp("r1", 8))
	// b shares a's conv weights: the pass-0 zero-cost match.
	b := chain("b", convOp("c1", 3, 8, 8), reluOp("r1", 8))
	b.Op(0).WeightsID = a.Op(0).WeightsID
	// c has a's shapes with fresh weights: the pass-1 shape-only match.
	c := chain("c", convOp("c1", 3, 8, 8), reluOp("r1", 8))
	// d differs only in kernel size: the final sequential Reshape pass.
	d := chain("d", convOp("c1", 5, 8, 8), reluOp("r1", 8))
	// e's channel counts are 16× a's, beyond ReshapeMaxRatio: conv
	// substitution is ruled out, forcing Add+Reduce.
	e := chain("e", convOp("c1", 3, 128, 128), reluOp("r1", 128))
	// f is a longer mixed chain so pairs also cover unequal op counts.
	f := chain("f", convOp("c1", 1, 8, 16), reluOp("r1", 16), convOp("c2", 3, 16, 16), reluOp("r2", 16))
	return []*model.Graph{a, b, c, d, e, f}
}

// TestCrosscheckHungarianBrute cross-checks the Munkres solver against the
// brute-force oracle on every ordered zoo pair: equal optimal assignment
// cost, a group mapping never cheaper than the optimum, and executable plans
// from all three algorithms.
func TestCrosscheckHungarianBrute(t *testing.T) {
	zoo := crosscheckZoo()
	prof := cost.CPU()
	est := cost.Exact(prof)
	for _, src := range zoo {
		for _, dst := range zoo {
			if src == dst {
				continue
			}
			t.Run(src.Name+"→"+dst.Name, func(t *testing.T) {
				mx := BuildMatrix(est, src, dst)
				if mx.Size() > bruteForceLimit {
					t.Fatalf("zoo pair too big for brute force: matrix %d", mx.Size())
				}
				hRows, hCost := hungarian(mx)
				bRows, bCost := bruteForce(mx)
				if math.Abs(hCost-bCost) > 1e-9 {
					t.Errorf("hungarian %v != brute %v", hCost, bCost)
				}
				// Both optima, translated to mappings, cost the same; the
				// group heuristic is never cheaper than the optimum.
				hMap := mappingFromAssignment(mx, hRows)
				bMap := mappingFromAssignment(mx, bRows)
				hNode := MappingCost(est, src, dst, hMap)
				bNode := MappingCost(est, src, dst, bMap)
				if math.Abs(hNode-bNode) > 1e-9 {
					t.Errorf("mapping cost hungarian %v != brute %v", hNode, bNode)
				}
				pl := New(est, AlgoGroup)
				gNode := MappingCost(est, src, dst, groupMapping(est, pl.index(src), pl.index(dst)))
				if gNode < hNode-1e-9 {
					t.Errorf("group mapping (%v) beat the optimal assignment (%v)", gNode, hNode)
				}
				for _, algo := range []Algorithm{AlgoGroup, AlgoHungarian, AlgoBrute} {
					p := New(est, algo).Plan(src, dst)
					if err := metaop.Verify(prof, p, src, dst); err != nil {
						t.Errorf("%v plan does not verify: %v", algo, err)
					}
				}
			})
		}
	}
}

// TestGroupCoversMatchPasses pins each pass of the group matcher to the plan
// shape it must produce on the zoo pairs built for it.
func TestGroupCoversMatchPasses(t *testing.T) {
	zoo := crosscheckZoo()
	a, b, c, d, e := zoo[0], zoo[1], zoo[2], zoo[3], zoo[4]
	est := exact()
	pl := New(est, AlgoGroup)

	// Pass 0 — identical shape and weights everywhere: an empty, free plan.
	if p := pl.Plan(b, a); len(p.Steps) != 0 || p.EstCost != 0 {
		t.Errorf("shared-weights pair: %d steps cost %v, want empty free plan", len(p.Steps), p.EstCost)
	}
	// Pass 1 — identical shapes, fresh conv weights: exactly one Replace.
	if counts := pl.Plan(c, a).CountByKind(); counts[metaop.KindReplace] != 1 ||
		counts[metaop.KindReshape] != 0 || counts[metaop.KindAdd] != 0 || counts[metaop.KindReduce] != 0 {
		t.Errorf("shape-only pair: %v, want exactly 1 replace", counts)
	}
	// Final pass — kernel 5→3 within the ratio bound: Reshape (plus the
	// weight Replace a weighted reshape implies), nothing added or reduced.
	if counts := pl.Plan(d, a).CountByKind(); counts[metaop.KindReshape] != 1 ||
		counts[metaop.KindAdd] != 0 || counts[metaop.KindReduce] != 0 {
		t.Errorf("kernel-ladder pair: %v, want exactly 1 reshape", counts)
	}
	// Reshapeable skip — 128 vs 8 channels exceeds ReshapeMaxRatio, so the
	// conv cannot be reshaped: it is reduced and the destination conv added,
	// while the weightless relu still reshapes.
	counts := pl.Plan(e, a).CountByKind()
	if counts[metaop.KindAdd] != 1 || counts[metaop.KindReduce] != 1 || counts[metaop.KindReshape] != 1 {
		t.Errorf("extreme-ratio pair: %v, want 1 add + 1 reduce + 1 reshape", counts)
	}
	if !est.Profile().Reshapeable(a.Op(0), a.Op(0)) || est.Profile().Reshapeable(e.Op(0), a.Op(0)) {
		t.Error("Reshapeable gate not behaving as the zoo assumes")
	}
}
