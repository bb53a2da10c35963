package planner

import "repro/internal/cost"

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
// destination op of a (type, shape) key with the r-th unused source op of
// the same key (in pass 1, also of the same weights), both in topological
// order. Keys never interact, so these passes run key by key over a
// merge-join of the two indexes' sorted keys, and keys only one model has
// are skipped whole; pass 3 runs over all types at once. Keys are interned
// integers shared by every index of the planner; since ops pair only within
// equal keys, the order keys were interned in does not affect the mapping.
func groupMapping(prof *cost.Profile, si, di *modelIndex) Mapping {
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

	sr, dr := si.runs, di.runs
	for a, b := 0, 0; a < len(sr)-1 && b < len(dr)-1; {
		switch {
		case sr[a].key < dr[b].key:
			a++
		case sr[a].key > dr[b].key:
			b++
		default:
			s0, s1, d0, d1 := sr[a].start, sr[a+1].start, dr[b].start, dr[b+1].start
			// Pass 1 is the key's first, so no op is used yet: a merge-join
			// on the weights.
			ss, ds := si.byWeights[s0:s1], di.byWeights[d0:d1]
			for i, j := 0, 0; i < len(ss) && j < len(ds); {
				switch w, v := sops[ss[i]].WeightsID, dops[ds[j]].WeightsID; {
				case w < v:
					i++
				case w > v:
					j++
				default:
					pair(ss[i], ds[j])
					i++
					j++
				}
			}
			ss, ds = si.byShape[s0:s1], di.byShape[d0:d1]
			for i, j := 0, 0; i < len(ss) && j < len(ds); {
				switch {
				case srcToDst[ss[i]] >= 0:
					i++
				case matched[ds[j]]:
					j++
				default:
					pair(ss[i], ds[j])
					i++
					j++
				}
			}
			a++
			b++
		}
	}

	// Final pass: remaining ops sequentially in topological order, skipping
	// pairs the profile rules un-reshapeable (extreme size ratios); those
	// destinations fall through to Add and the sources to Reduce.
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
