// Package planner computes inter-function model transformation strategies
// (§4.4): it formulates the transformation between two model graphs as a
// graph-edit-distance problem over the meta-operators of §4.3 and offers
// three solvers —
//
//   - a brute-force oracle enumerating permutations (O((n+m)!), tests only);
//   - the basic algorithm via the Munkres/Hungarian assignment on the
//     Riesen-Bunke cost matrix (Module 2, O((n+m)³));
//   - the group-based approximate algorithm (Module 2⁺, O(n+m)).
//
// Plans embed the safeguard decision (Module 3): when the estimated
// transformation cost exceeds loading the destination model from scratch,
// the plan degenerates to a fresh load so worst-case performance matches a
// traditional platform.
package planner

import (
	"math"

	"repro/internal/cost"
	"repro/internal/model"
)

// big stands in for "impossible" (cross-type substitution, off-diagonal
// deletion/insertion cells) in the assignment matrix. It is finite so the
// Hungarian algorithm needs no special casing, but large enough that an
// optimal assignment never selects it when a feasible alternative exists.
const big = 1e15 // nanoseconds

// Matrix is the (n+m)×(n+m) transformation cost matrix of §4.4 (after
// Riesen & Bunke): the top-left n×m block holds substitution costs, the
// top-right n×n diagonal deletion costs, the bottom-left m×m diagonal
// insertion costs, and the bottom-right m×n block zeros.
type Matrix struct {
	N, M int // source and destination operation counts
	c    []float64
}

// At returns the cost at row i, column j (both in [0, N+M)).
func (mx *Matrix) At(i, j int) float64 { return mx.c[i*(mx.N+mx.M)+j] }

func (mx *Matrix) set(i, j int, v float64) { mx.c[i*(mx.N+mx.M)+j] = v }

// Size returns the matrix dimension n+m.
func (mx *Matrix) Size() int { return mx.N + mx.M }

// BuildMatrix constructs the cost matrix for transforming src into dst under
// the estimator's profiled meta-operator costs.
func BuildMatrix(est *cost.Estimator, src, dst *model.Graph) *Matrix {
	return buildMatrix(est.Snapshot(), src, dst)
}

// buildMatrix is BuildMatrix under one snapshot of the estimates.
func buildMatrix(est *cost.Snapshot, src, dst *model.Graph) *Matrix {
	n, m := src.NumOps(), dst.NumOps()
	size := n + m
	mx := &Matrix{N: n, M: m, c: make([]float64, size*size)}
	for i := 0; i < n; i++ {
		srcOp := src.Op(i)
		for j := 0; j < m; j++ {
			if c, ok := est.SubstituteCost(srcOp, dst.Op(j)); ok {
				mx.set(i, j, float64(c))
			} else {
				mx.set(i, j, big)
			}
		}
		for k := 0; k < n; k++ {
			if k == i {
				mx.set(i, m+k, float64(est.ReduceCost(srcOp)))
			} else {
				mx.set(i, m+k, big)
			}
		}
	}
	for k := 0; k < m; k++ {
		dstOp := dst.Op(k)
		for j := 0; j < m; j++ {
			if j == k {
				mx.set(n+k, j, float64(est.AddCost(dstOp)))
			} else {
				mx.set(n+k, j, big)
			}
		}
		// Bottom-right block is zero (ε→ε).
	}
	return mx
}

// Mapping is the result of solving the assignment: SrcToDst[i] is the
// destination op matched to source op i, or -1 if the op is deleted;
// Added lists destination ops created from scratch.
type Mapping struct {
	SrcToDst []int
	Added    []int
}

// mappingFromAssignment converts a row→column assignment over the full
// matrix into a Mapping, demoting any big-cost substitution to delete+add.
func mappingFromAssignment(mx *Matrix, rowToCol []int) Mapping {
	mp := Mapping{SrcToDst: make([]int, mx.N)}
	matched := make([]bool, mx.M)
	for i := 0; i < mx.N; i++ {
		j := rowToCol[i]
		if j < mx.M && mx.At(i, j) < big/2 {
			mp.SrcToDst[i] = j
			matched[j] = true
		} else {
			mp.SrcToDst[i] = -1
		}
	}
	for j := 0; j < mx.M; j++ {
		if !matched[j] {
			mp.Added = append(mp.Added, j)
		}
	}
	return mp
}

// MappingCost returns the node-level cost of a mapping (substitutions +
// deletions + insertions), excluding edge costs.
func MappingCost(est *cost.Estimator, src, dst *model.Graph, mp Mapping) float64 {
	var total float64
	for i, j := range mp.SrcToDst {
		if j < 0 {
			total += float64(est.ReduceCost(src.Op(i)))
			continue
		}
		c, ok := est.SubstituteCost(src.Op(i), dst.Op(j))
		if !ok {
			return math.Inf(1)
		}
		total += float64(c)
	}
	for _, j := range mp.Added {
		total += float64(est.AddCost(dst.Op(j)))
	}
	return total
}
