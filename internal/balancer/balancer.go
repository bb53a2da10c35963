// Package balancer implements the model-sharing-aware load balancer of §5.1:
// it places functions with *similar model structures* but *complementary
// demand dynamics* on the same nodes, so idle containers are frequently
// transformable into the models that need them.
//
// Functions are clustered with K-medoids (PAM) under the distance
//
//	γ₁·D(A,B) + γ₂·K(A,B)
//
// where D is the normalized model editing distance (transformation cost from
// the §4.4 planner) and K the Pearson correlation of historical demand
// series (correlated demand is bad: both functions spike together, leaving
// no idle containers to share).
package balancer

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
)

// FunctionInfo is the balancer's view of one function.
type FunctionInfo struct {
	Name  string
	Model *model.Graph
	// Demand is the function's historical invocation series {l_t} (§5.1).
	Demand []float64
}

// Config parameterizes the balancer.
type Config struct {
	// GammaDistance (γ₁) weighs the model editing distance; GammaDemand
	// (γ₂) weighs demand correlation. Both in [0,1]; defaults 0.7 / 0.3.
	GammaDistance float64
	GammaDemand   float64
	// Seed drives the K-medoids initialization.
	Seed int64
	// MaxIterations bounds the PAM refinement loop (default 50).
	MaxIterations int
}

func (c Config) withDefaults() Config {
	if c.GammaDistance == 0 && c.GammaDemand == 0 {
		c.GammaDistance, c.GammaDemand = 0.7, 0.3
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 50
	}
	return c
}

// DistanceMatrix computes the pairwise function distance used for
// clustering. Editing distances are symmetrized (the planner's costs are
// asymmetric, §8.2) and normalized to [0,1] by the maximum observed cost;
// correlations are mapped from [-1,1] to [0,1].
func DistanceMatrix(pl *planner.Planner, fns []FunctionInfo, cfg Config) [][]float64 {
	cfg = cfg.withDefaults()
	n := len(fns)
	edit := make([][]float64, n)
	var maxEdit float64
	for i := range edit {
		edit[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a := planCost(pl, fns[i].Model, fns[j].Model)
			b := planCost(pl, fns[j].Model, fns[i].Model)
			d := (a + b) / 2
			edit[i][j], edit[j][i] = d, d
			if d > maxEdit {
				maxEdit = d
			}
		}
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			if i == j {
				continue
			}
			e := 0.0
			if maxEdit > 0 {
				e = edit[i][j] / maxEdit
			}
			corr := metrics.Corr(fns[i].Demand, fns[j].Demand)
			k := (corr + 1) / 2 // correlated demand → larger distance
			dist[i][j] = float64(cfg.GammaDistance*e) + float64(cfg.GammaDemand*k)
		}
	}
	return dist
}

func planCost(pl *planner.Planner, src, dst *model.Graph) float64 {
	p := pl.Plan(src, dst)
	if p.LoadFromScratch {
		return float64(p.ScratchCost)
	}
	return float64(p.EstCost)
}

// Clusters groups function indexes by cluster.
type Clusters struct {
	// Medoids holds the representative function index of each cluster.
	Medoids []int
	// Assign maps each function index to its cluster number.
	Assign []int
}

// KMedoids runs PAM clustering over the distance matrix into k clusters.
// It is deterministic under cfg.Seed. k is clamped to [1, n].
func KMedoids(dist [][]float64, k int, cfg Config) Clusters {
	cfg = cfg.withDefaults()
	n := len(dist)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	medoids := rng.Perm(n)[:k]
	sort.Ints(medoids)

	assign := make([]int, n)
	assignAll := func() float64 {
		var total float64
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			for c, m := range medoids {
				if d := dist[i][m]; d < bestD {
					bestD = d
					best = c
				}
			}
			assign[i] = best
			total += dist[i][medoids[best]]
		}
		return total
	}
	cost := assignAll()

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		improved := false
		for c := 0; c < k; c++ {
			// Try swapping medoid c with each member of its cluster.
			for i := 0; i < n; i++ {
				if assign[i] != c || i == medoids[c] {
					continue
				}
				old := medoids[c]
				medoids[c] = i
				if newCost := assignAll(); newCost < cost-1e-12 {
					cost = newCost
					improved = true
				} else {
					medoids[c] = old
				}
			}
		}
		if !improved {
			break
		}
		assignAll()
	}
	assignAll()
	return Clusters{Medoids: medoids, Assign: assign}
}

// Placement computes the fn→nodes placement for the simulator: functions are
// clustered into as many clusters as nodes, and each cluster is served by a
// set of nodes sized proportionally to its demand share (at least one).
func Placement(pl *planner.Planner, fns []FunctionInfo, nodes int, cfg Config) map[string][]int {
	cfg = cfg.withDefaults()
	if nodes < 1 {
		nodes = 1
	}
	// More clusters than nodes: clusters capture fine-grained structural
	// similarity (a resnet cluster, a vgg cluster, a BERT cluster, ...);
	// nodes then take whole clusters, balancing demand. This realizes the
	// paper's "the load balancer tends to distribute the functions in the
	// same cluster to the same node" while "consider[ing] the load of
	// nodes" (§5.1).
	k := 2 * nodes
	if k > len(fns) {
		k = len(fns)
	}
	if k < 1 {
		k = 1
	}
	dist := DistanceMatrix(pl, fns, cfg)
	cl := KMedoids(dist, k, cfg)

	// Cluster demand totals.
	load := make([]float64, k)
	fnDemand := make([]float64, len(fns))
	for i, f := range fns {
		var d float64
		for _, x := range f.Demand {
			d += x
		}
		if d == 0 {
			d = 1 // unknown demand still needs a home
		}
		fnDemand[i] = d
		load[cl.Assign[i]] += d
	}

	// Greedy bin-packing: heaviest cluster first onto the least-loaded node.
	order := make([]int, k)
	for c := range order {
		order[c] = c
	}
	sort.Slice(order, func(a, b int) bool {
		if load[order[a]] != load[order[b]] {
			return load[order[a]] > load[order[b]]
		}
		return order[a] < order[b]
	})
	nodeLoad := make([]float64, nodes)
	clusterNode := make([]int, k)
	for _, c := range order {
		best := 0
		for n := 1; n < nodes; n++ {
			if nodeLoad[n] < nodeLoad[best] {
				best = n
			}
		}
		clusterNode[c] = best
		nodeLoad[best] += load[c]
	}

	out := make(map[string][]int, len(fns))
	for i, f := range fns {
		out[f.Name] = []int{clusterNode[cl.Assign[i]]}
	}
	return out
}

// SlotDuration is the default demand-series granularity used when deriving
// FunctionInfo demand from traces.
const SlotDuration = 5 * time.Minute
