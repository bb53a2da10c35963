package planner

import (
	"cmp"

	"repro/internal/cost"
	"repro/internal/model"
)

// groupMapping implements the efficient group-based transformation algorithm
// of §4.4 Module 2⁺ in O(n+m):
//
//  1. group the operations of both models by type;
//  2. within each type, match operations sequentially one by one in
//     topological order (per the observation that operation shapes grow
//     monotonically with depth, sequential matching of weighted ops is
//     near-optimal, and weight-free ops can be matched arbitrarily);
//  3. unmatched source ops are reduced, unmatched destination ops added.
//
// Within a type the matcher runs three passes: (1) identical shape+weights
// (zero-cost matches — shared pre-trained tensors, e.g. the BERT base under
// two downstream heads); (2) identical shape (Replace only); (3) remaining
// ops sequentially in topological order (Reshape), exploiting the
// monotone-shape observation. Passes 1 and 2 pair the r-th unused
// destination op of a key with the r-th unused source op of the same key,
// both in topological order: a merge-join over the indexes' key-sorted op
// lists. Types never interact, so each pass runs over all types at once.
func groupMapping(est *cost.Estimator, si, di *modelIndex) Mapping {
	sops, dops := si.g.Ops(), di.g.Ops()
	srcToDst := make([]int, len(sops))
	for i := range srcToDst {
		srcToDst[i] = -1
	}
	// srcToDst[i] >= 0 marks source op i used; matched marks destinations.
	matched := make([]bool, len(dops))
	pairs := 0
	pair := func(i, j int32) {
		srcToDst[i] = int(j)
		matched[j] = true
		pairs++
	}

	for pass := range si.byKey {
		ss, ds := si.byKey[pass], di.byKey[pass]
		a, b := 0, 0
		for a < len(ss) && b < len(ds) {
			i, j := ss[a], ds[b]
			if srcToDst[i] >= 0 {
				a++
				continue
			}
			if matched[j] {
				b++
				continue
			}
			switch c := compareKey(sops[i], dops[j], pass); {
			case c < 0:
				a++
			case c > 0:
				b++
			default:
				pair(i, j)
				a++
				b++
			}
		}
	}

	// Final pass: remaining ops sequentially in topological order, skipping
	// pairs the profile rules un-reshapeable (extreme size ratios); those
	// destinations fall through to Add and the sources to Reduce.
	prof := est.Profile()
	for t := 0; t < min(len(si.byType), len(di.byType)); t++ {
		ss := si.byType[t]
		a := 0
		for _, j := range di.byType[t] {
			if matched[j] {
				continue
			}
			for a < len(ss) && (srcToDst[ss[a]] >= 0 || !prof.Reshapeable(sops[ss[a]], dops[j])) {
				a++
			}
			if a == len(ss) {
				break
			}
			pair(ss[a], j)
			a++
		}
	}

	mp := Mapping{SrcToDst: srcToDst}
	if added := len(dops) - pairs; added > 0 {
		mp.Added = make([]int, 0, added)
		for j, ok := range matched {
			if !ok {
				mp.Added = append(mp.Added, j)
			}
		}
	}
	return mp
}

// compareKey orders operations by the group matcher's key for a pass: type
// and shape, and in pass 0 also the weights identity. Equal keys mean a
// substitution needs no Reshape (and, in pass 0, no work at all), so the
// matcher pairs those first.
func compareKey(a, b *model.Operation, pass int) int {
	if c := cmp.Compare(a.Type, b.Type); c != 0 {
		return c
	}
	sa, sb := &a.Shape, &b.Shape
	if c := cmp.Compare(sa.KernelH, sb.KernelH); c != 0 {
		return c
	}
	if c := cmp.Compare(sa.KernelW, sb.KernelW); c != 0 {
		return c
	}
	if c := cmp.Compare(sa.InChannels, sb.InChannels); c != 0 {
		return c
	}
	if c := cmp.Compare(sa.OutChannels, sb.OutChannels); c != 0 {
		return c
	}
	if c := cmp.Compare(sa.Stride, sb.Stride); c != 0 || pass != 0 {
		return c
	}
	return cmp.Compare(a.WeightsID, b.WeightsID)
}
