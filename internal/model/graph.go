package model

import (
	"fmt"
	"sort"
)

// Graph is a directed acyclic computational graph: operations connected by
// dataflow edges. The zero value is not usable; construct with NewGraph.
//
// Graphs are not safe for concurrent mutation; the simulator clones a graph
// into each container that holds it.
type Graph struct {
	// Name identifies the model, e.g. "resnet50" or "bert-base-uncased-qa".
	Name string
	// Family groups structurally related models, e.g. "resnet", "bert".
	// Transformations within a family are typically cheap (§8.2).
	Family string

	ops   []*Operation
	succ  [][]int // succ[id] = IDs of direct successors
	nedge int
}

// NewGraph returns an empty graph with the given name and family.
func NewGraph(name, family string) *Graph {
	return &Graph{Name: name, Family: family}
}

// AddOp appends an operation to the graph, assigning and returning its ID.
// The passed Operation's ID field is overwritten.
func (g *Graph) AddOp(op Operation) *Operation {
	op.ID = len(g.ops)
	o := &op
	g.ops = append(g.ops, o)
	g.succ = append(g.succ, nil)
	return o
}

// Connect adds a dataflow edge from operation `from` to operation `to`.
// Duplicate edges are ignored. Connect panics if either ID is out of range;
// edge insertion is a construction-time operation and an out-of-range ID is a
// programming error in a zoo builder.
func (g *Graph) Connect(from, to int) {
	if from < 0 || from >= len(g.ops) || to < 0 || to >= len(g.ops) {
		//optimus:allow panicpath — construction-time API-misuse guard: a bad ID is a zoo-builder bug, not a runtime error
		panic(fmt.Sprintf("model: Connect(%d, %d) out of range [0, %d)", from, to, len(g.ops)))
	}
	for _, s := range g.succ[from] {
		if s == to {
			return
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.nedge++
}

// Disconnect removes the edge from → to if present.
func (g *Graph) Disconnect(from, to int) {
	if from < 0 || from >= len(g.ops) {
		return
	}
	for i, s := range g.succ[from] {
		if s == to {
			g.succ[from] = append(g.succ[from][:i], g.succ[from][i+1:]...)
			g.nedge--
			return
		}
	}
}

// HasEdge reports whether the edge from → to exists.
func (g *Graph) HasEdge(from, to int) bool {
	if from < 0 || from >= len(g.ops) {
		return false
	}
	for _, s := range g.succ[from] {
		if s == to {
			return true
		}
	}
	return false
}

// NumOps returns the number of operations in the graph.
func (g *Graph) NumOps() int { return len(g.ops) }

// NumEdges returns the number of dataflow edges in the graph.
func (g *Graph) NumEdges() int { return g.nedge }

// Op returns the operation with the given ID, or nil if out of range.
func (g *Graph) Op(id int) *Operation {
	if id < 0 || id >= len(g.ops) {
		return nil
	}
	return g.ops[id]
}

// Ops returns the graph's operations in ID order. The returned slice is the
// graph's backing store; callers must not mutate it.
func (g *Graph) Ops() []*Operation { return g.ops }

// Edge is a dataflow edge between two operations.
type Edge struct{ From, To int }

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.nedge)
	for from, ss := range g.succ {
		for _, to := range ss {
			out = append(out, Edge{from, to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:   g.Name,
		Family: g.Family,
		ops:    make([]*Operation, len(g.ops)),
		succ:   make([][]int, len(g.succ)),
		nedge:  g.nedge,
	}
	for i, op := range g.ops {
		cp := *op
		c.ops[i] = &cp
	}
	for i, ss := range g.succ {
		if len(ss) > 0 {
			c.succ[i] = append([]int(nil), ss...)
		}
	}
	return c
}

// Validate checks structural invariants: at least one op, consistent IDs,
// edges in range, acyclicity, and valid op types. It returns the first
// violation found.
func (g *Graph) Validate() error {
	if len(g.ops) == 0 {
		return fmt.Errorf("model: graph %q has no operations", g.Name)
	}
	for i, op := range g.ops {
		if op.ID != i {
			return fmt.Errorf("model: graph %q op at index %d has ID %d", g.Name, i, op.ID)
		}
		if !op.Type.Valid() {
			return fmt.Errorf("model: graph %q op #%d has invalid type", g.Name, i)
		}
		if op.HasWeights() && op.WeightCount() <= 0 {
			return fmt.Errorf("model: graph %q op #%d (%s) is weighted but has no weights", g.Name, i, op.Type)
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// TopoSort returns the operation IDs in a deterministic topological order
// (Kahn's algorithm with smallest-ID-first tie-breaking). It returns an error
// if the graph contains a cycle.
func (g *Graph) TopoSort() ([]int, error) {
	n := len(g.ops)
	indeg := make([]int, n)
	for _, ss := range g.succ {
		for _, to := range ss {
			indeg[to]++
		}
	}
	// Min-heap behaviour via sorted frontier; n is small (≤ a few hundred).
	frontier := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			frontier = append(frontier, id)
		}
	}
	order := make([]int, 0, n)
	for len(frontier) > 0 {
		sort.Ints(frontier)
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, to := range g.succ[id] {
			indeg[to]--
			if indeg[to] == 0 {
				frontier = append(frontier, to)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("model: graph %q contains a cycle", g.Name)
	}
	return order, nil
}

// StructuralEqual reports whether g and other have identical structure:
// the same operations (type and shape, weights ignored) under identity of
// IDs, and the same edge set. Optimus' plan executor uses this to verify a
// transformation reproduced the destination model's structure.
func (g *Graph) StructuralEqual(other *Graph) bool {
	return g.equal(other, false)
}

// Equal reports whether g and other are identical including weight
// identities. After a full transformation (structure + Replace of weights)
// the source container's graph must be Equal to the destination model.
func (g *Graph) Equal(other *Graph) bool {
	return g.equal(other, true)
}

func (g *Graph) equal(other *Graph, weights bool) bool {
	if other == nil || len(g.ops) != len(other.ops) || g.nedge != other.nedge {
		return false
	}
	for i, op := range g.ops {
		oo := other.ops[i]
		if op.Type != oo.Type || op.Shape != oo.Shape {
			return false
		}
		if weights && op.WeightsID != oo.WeightsID {
			return false
		}
	}
	ea, eb := g.Edges(), other.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// Stats summarizes a graph for reporting and cost estimation.
type Stats struct {
	Ops         int
	WeightedOps int
	Edges       int
	Params      int64
	Bytes       int64
	ByType      map[OpType]int
}

// Stats computes summary statistics for the graph.
func (g *Graph) Stats() Stats {
	st := Stats{Ops: len(g.ops), Edges: g.nedge, ByType: make(map[OpType]int)}
	for _, op := range g.ops {
		st.ByType[op.Type]++
		if op.HasWeights() {
			st.WeightedOps++
			st.Params += op.WeightCount()
			st.Bytes += op.WeightBytes()
		}
	}
	return st
}

// String renders a one-line summary.
func (g *Graph) String() string {
	st := g.Stats()
	return fmt.Sprintf("%s[%s]: %d ops (%d weighted), %d edges, %.1fM params",
		g.Name, g.Family, st.Ops, st.WeightedOps, st.Edges, float64(st.Params)/1e6)
}
