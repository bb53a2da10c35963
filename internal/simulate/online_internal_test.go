package simulate

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/zoo"
)

// warmColdPolicy is a minimal warm-or-cold policy so whitebox tests run
// without importing the policy package (which imports simulate).
type warmColdPolicy struct{}

func (warmColdPolicy) Name() string { return "warm-cold" }

func (warmColdPolicy) Serve(env *Env, n *Node, fn *Function, now time.Duration) (Decision, bool) {
	if c := n.WarmIdle(fn, now); c != nil {
		return Decision{Kind: metrics.StartWarm, Reuse: c}, true
	}
	if !n.CanPlace(now) {
		return Decision{}, false
	}
	return Decision{
		Kind: metrics.StartCold,
		Init: env.Profile.SandboxInit,
		Load: env.Profile.ModelLoad(fn.Model).Total(),
	}, true
}

// twoGroupFixture builds four functions split across two node pairs.
func twoGroupFixture(t *testing.T) (Config, []*Function) {
	t.Helper()
	g, err := zoo.Imgclsmob().Get("resnet18-imagenet")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"win-a", "win-b", "win-c", "win-d"}
	fns := make([]*Function, len(names))
	placement := map[string][]int{}
	for i, n := range names {
		fns[i] = &Function{Name: n, Model: g}
		if i < 2 {
			placement[n] = []int{0, 1}
		} else {
			placement[n] = []int{2, 3}
		}
	}
	cfg := Config{
		Policy: warmColdPolicy{}, Nodes: 4, ContainersPerNode: 3,
		Placement: placement, Seed: 3,
	}
	return cfg, fns
}

// TestOnlineRoutesByScan pins a deliberate divergence from replay: Online
// routes with the scanning router and never builds the per-node routing
// index, which replay uses with the scan kept as its RouteScan baseline and
// CrossCheckRouting oracle. The routers agree, so records do not diverge;
// only the cost of a route does.
func TestOnlineRoutesByScan(t *testing.T) {
	cfg, fns := twoGroupFixture(t)
	o := NewOnline(cfg, fns)
	for i := 0; i < 40; i++ {
		if _, err := o.Invoke(fns[i%len(fns)].Name, time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if o.sim.idxOn {
		t.Fatal("Online enabled the routing index")
	}
	for _, n := range o.sim.nodes {
		if n.idx != nil {
			t.Fatalf("node %d carries a routing index", n.ID)
		}
	}
}
