package simulate

import (
	"testing"
	"time"
)

// TestOnlineRoutesByScan pins a deliberate divergence from replay: Online
// routes with the scanning router and never builds the per-node routing
// index, which replay uses with the scan kept as its RouteScan baseline and
// CrossCheckRouting oracle. The routers agree, so records do not diverge;
// only the cost of a route does.
func TestOnlineRoutesByScan(t *testing.T) {
	cfg, fns, _ := windowTestFixture(t)
	cfg.CrossCheckWindows = false
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
