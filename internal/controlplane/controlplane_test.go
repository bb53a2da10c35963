package controlplane

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/simulate"
	"repro/internal/zoo"
)

// fakeClock is the injectable virtual clock the gateway tests use.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
	return c.t
}

func testModels(t testing.TB, n int) []*model.Graph {
	t.Helper()
	img := zoo.Imgclsmob()
	names := img.Names()
	if len(names) < n {
		t.Fatalf("zoo has %d models, test needs %d", len(names), n)
	}
	out := make([]*model.Graph, n)
	for i := 0; i < n; i++ {
		out[i] = img.MustGet(names[i])
	}
	return out
}

func testCluster(t testing.TB, members int, clock *fakeClock, mutate func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Members:     members,
		Seed:        11,
		Base:        simulate.Config{Nodes: 2, ContainersPerNode: 2},
		Now:         clock.now,
		PlanWorkers: 2,
		Precompute:  true,
		SharedCache: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return NewCluster(cfg)
}

// TestRoutingDeterministicAndForwarded: every function has exactly one owner,
// all members agree on it, and invoking from a non-owner counts a forward
// while invoking from the owner does not.
func TestRoutingDeterministicAndForwarded(t *testing.T) {
	clock := &fakeClock{}
	cl := testCluster(t, 4, clock, nil)
	models := testModels(t, 6)
	for _, m := range models {
		if err := cl.RegisterModel(m); err != nil {
			t.Fatal(err)
		}
	}
	cl.PlanningQuiesce()

	for _, m := range models {
		owner, ok := cl.Owner(m.Name)
		if !ok {
			t.Fatalf("no owner for %s", m.Name)
		}
		rec, forwarded, err := cl.Invoke(owner, m.Name, clock.advance(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if forwarded {
			t.Errorf("invoke at owner %s of %s counted as forwarded", owner, m.Name)
		}
		if rec.Function != m.Name {
			t.Errorf("record function %s, want %s", rec.Function, m.Name)
		}
		// From any other member the same function must forward to the same
		// owner.
		for _, entry := range cl.Members() {
			if entry == owner {
				continue
			}
			_, fw, err := cl.Invoke(entry, m.Name, clock.advance(time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if !fw {
				t.Errorf("invoke of %s from %s (owner %s) not forwarded", m.Name, entry, owner)
			}
		}
	}
	st := cl.Stats()
	if st.Forwards == 0 {
		t.Error("no forwards counted")
	}
	if st.RingMembers != 4 {
		t.Errorf("ring has %d members, want 4", st.RingMembers)
	}
}

// TestOwnedPairsPlannedExactlyOnce: with precompute on and the ring filter
// installed, each ordered pair is planned by exactly one member cluster-wide
// — the cross-gateway extension of the singleflight guarantee. A pair counts
// as planned once it is costed or planned (Planned+Costed, which with no
// steps built is Misses−Remote).
func TestOwnedPairsPlannedExactlyOnce(t *testing.T) {
	clock := &fakeClock{}
	cl := testCluster(t, 4, clock, nil)
	models := testModels(t, 6)
	for _, m := range models {
		if err := cl.RegisterModel(m); err != nil {
			t.Fatal(err)
		}
	}
	cl.PlanningQuiesce()

	totalPlanned, totalFirst := 0, 0
	for _, row := range cl.Stats().Members {
		totalPlanned += row.Cache.Planned + row.Cache.Costed
		totalFirst += row.Cache.Misses - row.Cache.Remote
	}
	wantPairs := len(models) * (len(models) - 1)
	if totalPlanned != wantPairs || totalFirst != wantPairs {
		t.Errorf("cluster planned+costed %d (misses−remote %d) pairs for a %d-pair catalog (duplicate or lost planning)",
			totalPlanned, totalFirst, wantPairs)
	}

	// Every pair must live in its owner's cache.
	for _, src := range models {
		for _, dst := range models {
			if src == dst {
				continue
			}
			owner, _ := cl.Owner(pairKey(src.Name, dst.Name))
			gw, ok := cl.Member(owner)
			if !ok {
				t.Fatalf("owner %s missing", owner)
			}
			if _, ok := gw.Env().Plans.Get(src, dst); !ok {
				t.Errorf("pair %s→%s missing from owner %s", src.Name, dst.Name, owner)
			}
		}
	}
}

// TestDrainHandsOffPlans: draining a member moves every plan it owned to the
// new ring owners without re-planning, and the drained member is gone.
func TestDrainHandsOffPlans(t *testing.T) {
	clock := &fakeClock{}
	cl := testCluster(t, 4, clock, nil)
	models := testModels(t, 6)
	for _, m := range models {
		if err := cl.RegisterModel(m); err != nil {
			t.Fatal(err)
		}
	}
	cl.PlanningQuiesce()
	plannedBefore := 0
	for _, row := range cl.Stats().Members {
		plannedBefore += row.Cache.Planned + row.Cache.Costed
	}

	const victim = "gw-1"
	if err := cl.Drain(victim); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(victim); err == nil {
		t.Error("second drain of the same member should fail")
	}
	members := cl.Members()
	if len(members) != 3 {
		t.Fatalf("members after drain: %v", members)
	}
	for _, m := range members {
		if m == victim {
			t.Fatalf("drained member still present: %v", members)
		}
	}

	// Every pair's current owner must hold its plan, and nothing was planned
	// again during the handoff.
	for _, src := range models {
		for _, dst := range models {
			if src == dst {
				continue
			}
			owner, _ := cl.Owner(pairKey(src.Name, dst.Name))
			gw, _ := cl.Member(owner)
			if _, ok := gw.Env().Plans.Get(src, dst); !ok {
				t.Errorf("pair %s→%s lost in drain (owner %s)", src.Name, dst.Name, owner)
			}
		}
	}
	// The drained member's planned count left with it; survivors must not
	// have planned anything new (the handoff copies, never re-plans).
	plannedAfter := 0
	for _, row := range cl.Stats().Members {
		plannedAfter += row.Cache.Planned + row.Cache.Costed
	}
	if plannedAfter >= plannedBefore {
		t.Errorf("survivors planned new pairs during drain: cluster planned %d before, survivors hold %d",
			plannedBefore, plannedAfter)
	}

	// The cluster still serves every function.
	for _, m := range models {
		if _, _, err := cl.Invoke(members[0], m.Name, clock.advance(time.Second)); err != nil {
			t.Errorf("invoke %s after drain: %v", m.Name, err)
		}
	}
}

// TestSharedCachePullAndReplicate: with precompute off, a non-owner miss
// pulls from the owner (Remote, not Planned or Costed), and a pair pulled
// twice is replicated everywhere.
func TestSharedCachePullAndReplicate(t *testing.T) {
	clock := &fakeClock{}
	cl := testCluster(t, 3, clock, func(c *Config) { c.Precompute = false })
	models := testModels(t, 6)
	for _, m := range models {
		if err := cl.RegisterModel(m); err != nil {
			t.Fatal(err)
		}
	}
	// Demand-driven: serve every function in turn with gaps past the idle
	// threshold, so each arrival finds other functions' containers idle and
	// the transform path demands (src→dst) plans — planned on the pair's
	// ring owner, pulled by the serving member.
	entries := cl.Members()
	for round := 0; round < 6; round++ {
		for i, m := range models {
			now := clock.advance(70 * time.Second)
			if _, _, err := cl.Invoke(entries[i%len(entries)], m.Name, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.PlanningQuiesce()

	st := cl.Stats()
	totalPlanned, totalFirst := 0, 0
	for _, row := range st.Members {
		totalPlanned += row.Cache.Planned + row.Cache.Costed
		totalFirst += row.Cache.Misses - row.Cache.Remote
	}
	if totalPlanned == 0 {
		t.Error("no plans demanded — load too light to exercise the cache")
	}
	// Planned-once, demand-driven: every demanded pair was planned by exactly
	// one member (its owner), so the cluster-wide planned count equals the
	// number of distinct pairs cached anywhere (replication copies plans, it
	// never re-plans them).
	distinct := map[string]bool{}
	for _, src := range models {
		for _, dst := range models {
			if src == dst {
				continue
			}
			for _, name := range cl.Members() {
				gw, _ := cl.Member(name)
				if _, ok := gw.Env().Plans.Get(src, dst); ok {
					distinct[pairKey(src.Name, dst.Name)] = true
				}
			}
		}
	}
	if totalPlanned != len(distinct) || totalFirst != len(distinct) {
		t.Errorf("cluster planned+costed %d (misses−remote %d) pairs but %d distinct pairs are cached: duplicate planning across gateways",
			totalPlanned, totalFirst, len(distinct))
	}
}

// TestReconcileDeownsAndRejoins: a member the health tracker flags loses its
// ring position but stays alive; once it recovers it rejoins and owns keys
// again.
func TestReconcileDeownsAndRejoins(t *testing.T) {
	clock := &fakeClock{}
	cl := testCluster(t, 3, clock, func(c *Config) {
		c.Health.Enabled = true
		c.Health.MinObservations = 1
		c.Health.FailureThreshold = 0.5
		c.Health.SuspectStrikes = 1
		c.Health.QuarantineStrikes = 1
		c.Health.QuarantineDuration = 10 * time.Second
		c.Health.ClearStreak = 2
	})
	models := testModels(t, 3)
	for _, m := range models {
		if err := cl.RegisterModel(m); err != nil {
			t.Fatal(err)
		}
	}
	cl.PlanningQuiesce()

	// Fail the victim hard through the tracker, then reconcile.
	victim := "gw-0"
	gw, _ := cl.Member(victim)
	_ = gw
	var victimIdx int
	cl.mu.Lock()
	victimIdx = cl.members[victim].idx
	for i := 0; i < 6; i++ {
		cl.tracker.ObserveFailure(victimIdx, clock.now())
	}
	cl.mu.Unlock()

	deowned, _ := cl.Reconcile(clock.now())
	if len(deowned) != 1 || deowned[0] != victim {
		t.Fatalf("reconcile de-owned %v, want [%s]", deowned, victim)
	}
	if st := cl.Stats(); st.RingMembers != 2 {
		t.Fatalf("ring members after de-own: %d, want 2", st.RingMembers)
	}
	// The de-owned member still exists and requests route around it.
	if _, ok := cl.Member(victim); !ok {
		t.Fatal("de-owned member was deleted")
	}
	for _, m := range models {
		owner, _ := cl.Owner(m.Name)
		if owner == victim {
			t.Errorf("function %s still owned by de-owned member", m.Name)
		}
		if _, _, err := cl.Invoke(victim, m.Name, clock.advance(time.Second)); err != nil {
			t.Errorf("invoke entering at de-owned member failed: %v", err)
		}
	}

	// Recover: serve successes through the tracker past the quarantine
	// window, then reconcile again.
	past := clock.advance(30 * time.Second)
	cl.mu.Lock()
	for i := 0; i < 8; i++ {
		cl.tracker.ObserveServed(victimIdx, past+time.Duration(i)*time.Second, 10*time.Millisecond)
	}
	cl.mu.Unlock()
	_, rejoined := cl.Reconcile(clock.advance(40 * time.Second))
	if len(rejoined) != 1 || rejoined[0] != victim {
		t.Fatalf("reconcile rejoined %v, want [%s]", rejoined, victim)
	}
	if st := cl.Stats(); st.RingMembers != 3 {
		t.Errorf("ring members after rejoin: %d, want 3", st.RingMembers)
	}
}

// TestJoinWarmsWithoutReplanning: a joining member takes ring ownership with
// plans copied from the previous owners — its own planner computes nothing.
func TestJoinWarmsWithoutReplanning(t *testing.T) {
	clock := &fakeClock{}
	cl := testCluster(t, 2, clock, nil)
	models := testModels(t, 5)
	for _, m := range models {
		if err := cl.RegisterModel(m); err != nil {
			t.Fatal(err)
		}
	}
	cl.PlanningQuiesce()

	if err := cl.Join("gw-2"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Join("gw-2"); err == nil {
		t.Error("duplicate join should fail")
	}
	cl.PlanningQuiesce()

	gw, ok := cl.Member("gw-2")
	if !ok {
		t.Fatal("joiner missing")
	}
	ct := gw.Env().Plans.Counters()
	if ct.Planned != 0 || ct.Costed != 0 {
		t.Errorf("joiner planned %d and costed %d pairs; the warm handoff should have made them all hits", ct.Planned, ct.Costed)
	}
	// The joiner owns something and serves it.
	owned := 0
	for _, m := range models {
		if owner, _ := cl.Owner(m.Name); owner == "gw-2" {
			owned++
			if _, _, err := cl.Invoke("gw-0", m.Name, clock.advance(time.Second)); err != nil {
				t.Errorf("invoke via joiner: %v", err)
			}
		}
	}
	// Every pair's owner still holds its plan.
	for _, src := range models {
		for _, dst := range models {
			if src == dst {
				continue
			}
			owner, _ := cl.Owner(pairKey(src.Name, dst.Name))
			g, _ := cl.Member(owner)
			if _, ok := g.Env().Plans.Get(src, dst); !ok {
				t.Errorf("pair %s→%s missing from owner %s after join", src.Name, dst.Name, owner)
			}
		}
	}
}

// holds reports whether gw's plan cache already holds src→dst, and returns
// the pair: a held pair is a hit, so the lookup computes and counts nothing
// new as a miss.
func holds(gw *gateway.Gateway, src, dst *model.Graph) (planner.Costed, bool) {
	env := gw.Env()
	before := env.Plans.Counters().Misses
	k := env.Plans.GetOrCost(env.Planner, src, dst)
	return k, env.Plans.Counters().Misses == before
}

// TestHandoffCopiesCostOnlyEntries: a pair a member holds only as a cost —
// costed through GetOrCost, no steps built — moves to the pair's new owner
// on Drain and on Join, and the steps later built from the copy are the
// steps a fresh serial plan has.
func TestHandoffCopiesCostOnlyEntries(t *testing.T) {
	models := testModels(t, 5)
	costAll := func(t *testing.T, cl *Cluster) map[string]*planner.Planner {
		t.Helper()
		planners := map[string]*planner.Planner{}
		for _, src := range models {
			for _, dst := range models {
				if src == dst {
					continue
				}
				owner, _ := cl.Owner(pairKey(src.Name, dst.Name))
				gw, _ := cl.Member(owner)
				env := gw.Env()
				env.Plans.GetOrCost(env.Planner, src, dst)
				planners[pairKey(src.Name, dst.Name)] = env.Planner
			}
		}
		return planners
	}
	check := func(t *testing.T, cl *Cluster, planners map[string]*planner.Planner) {
		t.Helper()
		n := 0
		for _, src := range models {
			for _, dst := range models {
				if src == dst {
					continue
				}
				key := pairKey(src.Name, dst.Name)
				owner, _ := cl.Owner(key)
				gw, _ := cl.Member(owner)
				k, ok := holds(gw, src, dst)
				if !ok {
					t.Errorf("pair %s→%s: new owner %s does not hold the handed-off entry", src.Name, dst.Name, owner)
					continue
				}
				if !reflect.DeepEqual(k.Plan(), planners[key].Plan(src, dst)) {
					t.Errorf("pair %s→%s: steps built from the handed-off entry differ from a serial plan", src.Name, dst.Name)
				}
				n++
			}
		}
		if n == 0 {
			t.Fatal("no pair checked")
		}
	}
	noPrecompute := func(c *Config) { c.Precompute = false }

	t.Run("drain", func(t *testing.T) {
		clock := &fakeClock{}
		cl := testCluster(t, 3, clock, noPrecompute)
		for _, m := range models {
			if err := cl.RegisterModel(m); err != nil {
				t.Fatal(err)
			}
		}
		planners := costAll(t, cl)
		if err := cl.Drain("gw-1"); err != nil {
			t.Fatal(err)
		}
		check(t, cl, planners)
	})
	t.Run("join", func(t *testing.T) {
		clock := &fakeClock{}
		cl := testCluster(t, 2, clock, noPrecompute)
		for _, m := range models {
			if err := cl.RegisterModel(m); err != nil {
				t.Fatal(err)
			}
		}
		planners := costAll(t, cl)
		if err := cl.Join("gw-2"); err != nil {
			t.Fatal(err)
		}
		cl.PlanningQuiesce()
		check(t, cl, planners)
	})
}
