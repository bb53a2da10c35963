// Package metaop defines the five in-container transformation meta-operators
// of §4.3 — Replace, Reshape, Reduce, Add and Edge — together with the
// transformation Plan representation and an executor that applies a plan to
// the model graph held in a container.
//
// A plan is produced by the planner (package planner) against *estimated*
// costs; the executor charges *true* costs from the hardware profile and
// verifies that the rewritten graph is identical to the destination model.
package metaop

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/model"
)

// ErrEdgeBalance reports that a plan's declared edge rewiring does not
// balance against the edge-count difference between its source and
// destination graphs — the signature of a truncated or tampered plan.
var ErrEdgeBalance = errors.New("metaop: edge rewiring out of balance")

// CheckEdgeBalance validates the edge-balance invariant: every destination
// edge is either kept from the mapped source wiring or introduced by an
// Edge-add step, and every source edge is either kept or dropped by an
// Edge-remove step, so adds−removes must equal the edge-count difference
// diff. It is used by Apply on every plan execution and by fan-out to verify
// a replica's rewiring ledger before it serves.
func CheckEdgeBalance(adds, removes, diff int) error {
	if adds-removes != diff {
		return fmt.Errorf("%w: plan rewires %d−%d edges but the graphs differ by %d (truncated plan?)",
			ErrEdgeBalance, adds, removes, diff)
	}
	return nil
}

// Kind identifies a meta-operator.
type Kind uint8

const (
	// KindReplace overwrites an operation's weights with the destination
	// weights, preserving its structure.
	KindReplace Kind = iota + 1
	// KindReshape modifies an operation's properties (kernel size, channel
	// count, stride) without regenerating it.
	KindReshape
	// KindReduce deletes a source operation that matches nothing in the
	// destination model.
	KindReduce
	// KindAdd creates a destination operation from scratch in the container.
	KindAdd
	// KindEdge changes, removes or adds one dataflow edge.
	KindEdge
)

var kindNames = map[Kind]string{
	KindReplace: "replace",
	KindReshape: "reshape",
	KindReduce:  "reduce",
	KindAdd:     "add",
	KindEdge:    "edge",
}

// String returns the meta-operator's lower-case name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds returns all meta-operator kinds in a stable order.
func Kinds() []Kind {
	return []Kind{KindReplace, KindReshape, KindReduce, KindAdd, KindEdge}
}

// Step is one meta-operator application within a plan.
type Step struct {
	Kind Kind
	// SrcID is the operation ID in the source graph this step acts on
	// (Replace, Reshape, Reduce). -1 otherwise.
	SrcID int
	// DstID is the operation ID in the destination graph this step realizes
	// (Replace, Reshape, Add). -1 otherwise.
	DstID int
	// Dst is the desired destination operation (Replace, Reshape, Add).
	Dst model.Operation
	// EdgeFrom/EdgeTo/EdgeAdd describe an Edge step, in destination IDs.
	EdgeFrom, EdgeTo int
	EdgeAdd          bool
	// EstCost is the planner's estimated execution time for this step.
	EstCost time.Duration
}

// Plan is a sequence of meta-operators transforming one model into another,
// plus the safeguard decision of §4.4 Module 3.
type Plan struct {
	SrcName, DstName string
	SrcHash, DstHash uint64
	Steps            []Step
	// EstCost is the planner's total cost estimate for executing the steps.
	EstCost time.Duration
	// ScratchCost is the estimated cost of loading the destination model
	// from scratch instead.
	ScratchCost time.Duration
	// LoadFromScratch is the safeguard decision: when true the transformation
	// would be more expensive than a fresh load and the container should
	// simply load the destination model.
	LoadFromScratch bool
}

// TargetType returns the operation type a step acts on: the destination
// type for Replace/Reshape/Add, the source op's type for Reduce; ok=false
// for Edge steps (untyped).
func (s Step) TargetType(src *model.Graph) (model.OpType, bool) {
	switch s.Kind {
	case KindReplace, KindReshape, KindAdd:
		return s.Dst.Type, true
	case KindReduce:
		if op := src.Op(s.SrcID); op != nil {
			return op.Type, true
		}
	}
	return 0, false
}

// CountByKind tallies the plan's steps per meta-operator.
func (p *Plan) CountByKind() map[Kind]int {
	out := make(map[Kind]int, 5)
	for _, s := range p.Steps {
		out[s.Kind]++
	}
	return out
}

// CostByKind sums the estimated step costs per meta-operator (Fig 15).
func (p *Plan) CostByKind() map[Kind]time.Duration {
	out := make(map[Kind]time.Duration, 5)
	for _, s := range p.Steps {
		out[s.Kind] += s.EstCost
	}
	return out
}

// TrueCost returns the actual execution time of the plan under the given
// (ground-truth) hardware profile. The simulator charges this, not EstCost.
func (p *Plan) TrueCost(prof *cost.Profile, src *model.Graph) time.Duration {
	var total time.Duration
	for i := range p.Steps {
		total += StepTrueCost(prof, src, &p.Steps[i])
	}
	return total
}

// StepTrueCost returns the actual execution time of one step under the
// ground-truth hardware profile (what the container really pays, as opposed
// to the planner's estimate in Step.EstCost). Online profiling compares the
// two to refine estimates (§6).
func StepTrueCost(prof *cost.Profile, src *model.Graph, s *Step) time.Duration {
	switch s.Kind {
	case KindReplace:
		return prof.ReplaceCost(&s.Dst)
	case KindReshape:
		srcOp := src.Op(s.SrcID)
		if srcOp == nil {
			return prof.ReshapeBase
		}
		return prof.ReshapeCost(srcOp, &s.Dst)
	case KindReduce:
		srcOp := src.Op(s.SrcID)
		if srcOp == nil {
			return prof.ReduceCostPer
		}
		return prof.ReduceCost(srcOp)
	case KindAdd:
		return prof.AddCost(&s.Dst)
	case KindEdge:
		return prof.EdgeCost(1)
	default:
		return 0
	}
}

// Apply executes the plan against the source graph, returning the rewritten
// graph and the true execution time under prof. It returns an error if the
// plan is malformed (e.g. two steps claim the same destination slot, or a
// step references a missing source op).
//
// Apply never mutates src.
func Apply(prof *cost.Profile, p *Plan, src *model.Graph, dst *model.Graph) (*model.Graph, time.Duration, error) {
	if p.LoadFromScratch {
		// Safeguard: the container discards the old model and loads fresh.
		return dst.Clone(), prof.ModelLoad(dst).Total(), nil
	}
	out := model.NewGraph(dst.Name, dst.Family)
	slots := make([]*model.Operation, dst.NumOps())
	consumed := make(map[int]bool)
	type edgeKey struct {
		from, to int
		add      bool
	}
	seenEdges := make(map[edgeKey]bool)
	var edgeAdds, edgeRemoves int
	var elapsed time.Duration

	for i := range p.Steps {
		s := &p.Steps[i]
		elapsed += StepTrueCost(prof, src, s)
		switch s.Kind {
		case KindReplace, KindReshape, KindAdd:
			if s.DstID < 0 || s.DstID >= len(slots) {
				return nil, 0, fmt.Errorf("metaop: step %s has destination ID %d out of range", s.Kind, s.DstID)
			}
			if s.Kind != KindAdd {
				if src.Op(s.SrcID) == nil {
					return nil, 0, fmt.Errorf("metaop: step %s references missing source op %d", s.Kind, s.SrcID)
				}
				consumed[s.SrcID] = true
			}
			op := s.Dst
			if prev := slots[s.DstID]; prev != nil && *prev != op {
				return nil, 0, fmt.Errorf("metaop: conflicting steps for destination op %d", s.DstID)
			}
			slots[s.DstID] = &op
		case KindReduce:
			if src.Op(s.SrcID) == nil {
				return nil, 0, fmt.Errorf("metaop: reduce references missing source op %d", s.SrcID)
			}
			consumed[s.SrcID] = true
		case KindEdge:
			// Edges are applied after all slots are realized; a plan that
			// charges the same edge diff twice is corrupt.
			k := edgeKey{s.EdgeFrom, s.EdgeTo, s.EdgeAdd}
			if seenEdges[k] {
				return nil, 0, fmt.Errorf("metaop: duplicate edge step %d→%d (add=%v)", s.EdgeFrom, s.EdgeTo, s.EdgeAdd)
			}
			seenEdges[k] = true
			// Additions are phrased in destination IDs, removals in source
			// IDs; a step referencing wiring neither graph has is corrupt.
			if s.EdgeAdd {
				if !dst.HasEdge(s.EdgeFrom, s.EdgeTo) {
					return nil, 0, fmt.Errorf("metaop: edge step adds %d→%d, which is not a destination edge", s.EdgeFrom, s.EdgeTo)
				}
				edgeAdds++
			} else {
				if !src.HasEdge(s.EdgeFrom, s.EdgeTo) {
					return nil, 0, fmt.Errorf("metaop: edge step removes %d→%d, which is not a source edge", s.EdgeFrom, s.EdgeTo)
				}
				edgeRemoves++
			}
		default:
			return nil, 0, fmt.Errorf("metaop: unknown step kind %d", s.Kind)
		}
	}

	// Source ops that were neither substituted nor reduced carry over only if
	// they are already identical to their destination slot: the planner emits
	// no step exactly when source and destination ops match perfectly on
	// (Type, Shape, WeightsID). A nil slot with no such unconsumed source op
	// available is a hole the plan never filled — the container has no
	// bit-identical state to keep there, so the plan is rejected rather than
	// silently completed from dst.
	type opKey struct {
		typ       model.OpType
		shape     model.Shape
		weightsID uint64
	}
	avail := make(map[opKey]int)
	for i := 0; i < src.NumOps(); i++ {
		if consumed[i] {
			continue
		}
		op := src.Op(i)
		avail[opKey{op.Type, op.Shape, op.WeightsID}]++
	}
	for j := range slots {
		if slots[j] != nil {
			continue
		}
		op := *dst.Op(j)
		k := opKey{op.Type, op.Shape, op.WeightsID}
		if avail[k] <= 0 {
			return nil, 0, fmt.Errorf("metaop: destination op %d is realized by no step and no identical source op carries over (truncated plan?)", j)
		}
		avail[k]--
		slots[j] = &op
	}
	// A truncated edge list breaks the adds−removes balance (see
	// CheckEdgeBalance).
	if err := CheckEdgeBalance(edgeAdds, edgeRemoves, len(dst.Edges())-len(src.Edges())); err != nil {
		return nil, 0, err
	}
	for _, op := range slots {
		out.AddOp(*op)
	}
	// Edge steps are charged above (removals reference source wiring,
	// additions destination wiring); the realized graph takes the
	// destination dataflow, which the plan's Edge steps describe as a diff
	// against the mapped source edges.
	for _, e := range dst.Edges() {
		out.Connect(e.From, e.To)
	}
	return out, elapsed, nil
}

// Verify applies the plan and checks the result equals the destination model
// exactly (structure and weights). It is the executor's post-condition and
// is exercised heavily in tests.
func Verify(prof *cost.Profile, p *Plan, src, dst *model.Graph) error {
	got, _, err := Apply(prof, p, src, dst)
	if err != nil {
		return err
	}
	if !got.Equal(dst) {
		return fmt.Errorf("metaop: plan %s→%s did not reproduce the destination model", p.SrcName, p.DstName)
	}
	return nil
}
