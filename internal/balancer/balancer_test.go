package balancer

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/zoo"
)

func testPlanner() *planner.Planner {
	return planner.New(cost.Exact(cost.CPU()), planner.AlgoGroup)
}

func fnInfos(t *testing.T) []FunctionInfo {
	t.Helper()
	img := zoo.Imgclsmob()
	// Two "families" of functions with anti-correlated demand within family
	// pairs: similar models + complementary demand should cluster together.
	day := []float64{9, 8, 9, 1, 1, 1}
	night := []float64{1, 1, 1, 9, 8, 9}
	return []FunctionInfo{
		{Name: "r18", Model: img.MustGet("resnet18-imagenet"), Demand: day},
		{Name: "r34", Model: img.MustGet("resnet34-imagenet"), Demand: night},
		{Name: "v16", Model: img.MustGet("vgg16-imagenet"), Demand: day},
		{Name: "v19", Model: img.MustGet("vgg19-imagenet"), Demand: night},
	}
}

func TestDistanceMatrixProperties(t *testing.T) {
	fns := fnInfos(t)
	d := DistanceMatrix(testPlanner(), fns, Config{})
	n := len(fns)
	for i := 0; i < n; i++ {
		if d[i][i] != 0 {
			t.Errorf("d[%d][%d] = %v, want 0", i, i, d[i][i])
		}
		for j := 0; j < n; j++ {
			if d[i][j] != d[j][i] {
				t.Errorf("distance not symmetric at (%d,%d)", i, j)
			}
			if d[i][j] < 0 || d[i][j] > 1.0001 {
				t.Errorf("d[%d][%d] = %v outside [0,1]", i, j, d[i][j])
			}
		}
	}
	// Same family + complementary demand (r18,r34) must be closer than
	// cross-family + correlated demand (r18, v16).
	if d[0][1] >= d[0][2] {
		t.Errorf("r18-r34 (%v) should be closer than r18-v16 (%v)", d[0][1], d[0][2])
	}
}

func TestKMedoidsClustersFamilies(t *testing.T) {
	fns := fnInfos(t)
	d := DistanceMatrix(testPlanner(), fns, Config{})
	cl := KMedoids(d, 2, Config{Seed: 1})
	if len(cl.Medoids) != 2 {
		t.Fatalf("%d medoids", len(cl.Medoids))
	}
	// ResNets together, VGGs together.
	if cl.Assign[0] != cl.Assign[1] {
		t.Errorf("resnets split across clusters: %v", cl.Assign)
	}
	if cl.Assign[2] != cl.Assign[3] {
		t.Errorf("vggs split across clusters: %v", cl.Assign)
	}
	if cl.Assign[0] == cl.Assign[2] {
		t.Errorf("resnet and vgg merged: %v", cl.Assign)
	}
}

func TestKMedoidsEdgeCases(t *testing.T) {
	d := [][]float64{{0, 1}, {1, 0}}
	cl := KMedoids(d, 0, Config{}) // k clamped to 1
	if len(cl.Medoids) != 1 {
		t.Errorf("k=0 should clamp to 1, got %d medoids", len(cl.Medoids))
	}
	cl = KMedoids(d, 5, Config{}) // k clamped to n
	if len(cl.Medoids) != 2 {
		t.Errorf("k>n should clamp to n, got %d", len(cl.Medoids))
	}
	for i, a := range cl.Assign {
		if cl.Medoids[a] != i && d[i][cl.Medoids[a]] > 1 {
			t.Error("assignment inconsistent")
		}
	}
}

func TestKMedoidsDeterministic(t *testing.T) {
	fns := fnInfos(t)
	d := DistanceMatrix(testPlanner(), fns, Config{})
	a := KMedoids(d, 2, Config{Seed: 7})
	b := KMedoids(d, 2, Config{Seed: 7})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same-seed clustering differs")
		}
	}
}

func TestPlacement(t *testing.T) {
	fns := fnInfos(t)
	pl := Placement(testPlanner(), fns, 2, Config{Seed: 2})
	if len(pl) != len(fns) {
		t.Fatalf("placement covers %d of %d functions", len(pl), len(fns))
	}
	used := map[int]bool{}
	for f, nodes := range pl {
		if len(nodes) == 0 {
			t.Errorf("function %s got no nodes", f)
		}
		for _, n := range nodes {
			if n < 0 || n >= 2 {
				t.Errorf("function %s assigned node %d outside [0,2)", f, n)
			}
			used[n] = true
		}
	}
	if len(used) != 2 {
		t.Errorf("placement used %d of 2 nodes", len(used))
	}
	// Each function is pinned to exactly one node.
	for f, nodes := range pl {
		if len(nodes) != 1 {
			t.Errorf("function %s pinned to %d nodes, want 1", f, len(nodes))
		}
	}
}

func TestPlacementFewerFunctionsThanNodes(t *testing.T) {
	img := zoo.Imgclsmob()
	fns := []FunctionInfo{
		{Name: "only", Model: img.MustGet("resnet18-imagenet"), Demand: []float64{1, 2}},
	}
	pl := Placement(testPlanner(), fns, 4, Config{})
	if len(pl["only"]) == 0 {
		t.Fatal("single function must still get nodes")
	}
}
