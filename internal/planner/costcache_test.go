package planner

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/model"
	"repro/internal/zoo"
)

// costModels returns a few real zoo models whose pairs plan in microseconds.
func costModels() []*model.Graph {
	img := zoo.Imgclsmob()
	var out []*model.Graph
	for _, n := range []string{"resnet18-imagenet", "resnet34-imagenet", "vgg11-imagenet", "mobilenet-w1-imagenet"} {
		out = append(out, img.MustGet(n))
	}
	return append(out, zoo.BERTZoo().MustGet("bert-tiny"))
}

// TestCostOnlyEntries walks a bounded cache through the cost-only entry
// lifecycle: costing a pair caches its Cost without steps (counted against
// the bound, invisible to Get and Len), an evicted pair's handle still
// builds its plan, and GetOrPlan on a costed pair builds the steps once.
func TestCostOnlyEntries(t *testing.T) {
	m := costModels()
	pl := New(exact(), AlgoGroup)
	c := NewCacheBounded(2)

	ka := c.GetOrCost(pl, m[0], m[1])
	kb := c.GetOrCost(pl, m[0], m[2])
	if want := pl.Cost(m[0], m[1]); ka.Cost != want {
		t.Fatalf("GetOrCost = %+v, Planner.Cost = %+v", ka.Cost, want)
	}
	ct := c.Counters()
	if ct.Costed != 2 || ct.Planned != 0 || ct.Size != 2 || c.Len() != 0 {
		t.Fatalf("after two cost passes: counters %+v, Len %d; want Costed 2, Planned 0, Size 2, Len 0", ct, c.Len())
	}
	if _, ok := c.Get(m[0], m[1]); ok {
		t.Fatal("Get returned a pair that has no steps")
	}
	if again := c.GetOrCost(pl, m[0], m[1]); again.Cost != ka.Cost || c.Counters().Costed != 2 {
		t.Fatal("a costed pair was costed again")
	}

	// A third pair evicts the least recently used one, (m0, m2); its handle
	// still builds the plan Plan would.
	c.GetOrCost(pl, m[0], m[3])
	if ct := c.Counters(); ct.Evictions != 1 || ct.Size != 2 {
		t.Fatalf("counters %+v, want one eviction at size 2", ct)
	}
	if p := kb.Plan(); !reflect.DeepEqual(p, pl.Plan(m[0], m[2])) {
		t.Fatal("evicted pair's steps differ from Plan")
	}

	// GetOrPlan on a costed pair builds its steps from the draft, once.
	p := c.GetOrPlan(pl, m[0], m[1])
	if !reflect.DeepEqual(p, pl.Plan(m[0], m[1])) {
		t.Fatal("steps built for a costed pair differ from Plan")
	}
	if ka.Plan() != p {
		t.Fatal("Costed.Plan and GetOrPlan returned different plan objects")
	}
	if got, ok := c.Get(m[0], m[1]); !ok || got != p {
		t.Fatal("Get missed a pair whose steps exist")
	}
	ct = c.Counters()
	if ct.Planned != 2 || ct.Costed != 3 || c.Len() != 1 {
		t.Fatalf("counters %+v, Len %d; want Planned 2, Costed 3, Len 1", ct, c.Len())
	}
	if pt := c.PlanTimes(); pt.Count != ct.Planned+ct.Costed {
		t.Fatalf("PlanTimes counts %d operations, want Planned+Costed = %d", pt.Count, ct.Planned+ct.Costed)
	}
}

// TestCostFromCachedPlan: a pair whose plan is already cached — planned,
// Put, or pulled through the loader — takes its Cost from that plan and is
// never planned or costed again.
func TestCostFromCachedPlan(t *testing.T) {
	m := costModels()
	prof := cost.CPU()
	pl := New(cost.NewEstimator(prof, 0.3, 2), AlgoGroup)
	want := func(src, dst *model.Graph) Cost {
		p := pl.Plan(src, dst)
		return Cost{Est: p.EstCost, Scratch: p.ScratchCost, LoadFromScratch: p.LoadFromScratch, True: p.TrueCost(prof, src)}
	}

	c := NewCache()
	planned := c.GetOrPlan(pl, m[0], m[1])
	c.Put(m[1], m[0], pl.Plan(m[1], m[0]))
	pulled := pl.Plan(m[2], m[0])
	c.SetLoader(func(src, dst *model.Graph) (*metaop.Plan, bool) {
		if src == m[2] && dst == m[0] {
			return pulled, true
		}
		return nil, false
	})
	for _, pair := range [][2]*model.Graph{{m[0], m[1]}, {m[1], m[0]}, {m[2], m[0]}} {
		k := c.GetOrCost(pl, pair[0], pair[1])
		if k.Cost != want(pair[0], pair[1]) {
			t.Errorf("%s→%s: cost %+v, want %+v", pair[0].Name, pair[1].Name, k.Cost, want(pair[0], pair[1]))
		}
	}
	if k := c.GetOrCost(pl, m[0], m[1]); k.Plan() != planned {
		t.Error("a planned pair's handle returned another plan")
	}
	if k := c.GetOrCost(pl, m[2], m[0]); k.Plan() != pulled {
		t.Error("a pulled pair's handle returned another plan")
	}
	if ct := c.Counters(); ct.Planned != 1 || ct.Costed != 0 || ct.Remote != 1 {
		t.Errorf("counters %+v, want Planned 1 (the GetOrPlan), Costed 0, Remote 1", ct)
	}
}

// TestCostedStepsUnderLearning: steps built for a costed pair after the
// estimator has learned online are the steps a plan built at costing time
// had — the entry keeps the estimates snapshot it was costed under, not the
// mapping, and the mapping is recomputed under that snapshot — for the group
// matcher and for Hungarian, whose mapping itself reads the estimates.
// Concurrent first demands (run it under -race) all return that plan, and
// its steps are built once.
func TestCostedStepsUnderLearning(t *testing.T) {
	if reaches(reflect.TypeOf(lruEntry{}), reflect.TypeOf(Mapping{}), map[reflect.Type]bool{}) {
		t.Fatal("a cache entry can hold a Mapping")
	}
	m := costModels()
	for _, algo := range []Algorithm{AlgoGroup, AlgoHungarian} {
		t.Run(algo.String(), func(t *testing.T) {
			est := cost.NewEstimator(cost.CPU(), 0.4, 3)
			est.EnableOnlineProfiling(0.5)
			pl := New(est, algo)
			c := NewCache()
			src, dst := m[4], m[0] // bert-tiny → resnet18: every step kind
			before := pl.Plan(src, dst)
			k := c.GetOrCost(pl, src, dst)
			if k.e.plan != nil || k.e.pairing.si == nil {
				t.Fatal("GetOrCost left an entry with steps, or without its pairing")
			}
			for _, typ := range model.AllOpTypes() {
				est.Observe(typ, time.Millisecond, 3*time.Millisecond)
			}
			if reflect.DeepEqual(pl.Plan(src, dst), before) {
				t.Fatal("learning did not change the plan; the test proves nothing")
			}
			plans := make([]*metaop.Plan, 8)
			var wg sync.WaitGroup
			for g := range plans {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					plans[g] = k.Plan()
				}(g)
			}
			wg.Wait()
			for _, got := range plans {
				if got != plans[0] {
					t.Fatal("concurrent Costed.Plan calls returned different plan objects")
				}
			}
			if !reflect.DeepEqual(plans[0], before) {
				t.Fatal("steps built after learning differ from the plan at costing time")
			}
			if ct := c.Counters(); ct.Planned != 1 {
				t.Fatalf("counters %+v, want the steps counted as built once", ct)
			}
			if k.e.pairing.si != nil {
				t.Fatal("the entry kept its pairing after its steps were built")
			}
		})
	}
}

// reaches reports whether a value of type from can hold a value of type
// target, through fields, pointers, slices, arrays and maps.
func reaches(from, target reflect.Type, seen map[reflect.Type]bool) bool {
	if from == target {
		return true
	}
	if seen[from] {
		return false
	}
	seen[from] = true
	switch from.Kind() {
	case reflect.Struct:
		for i := 0; i < from.NumField(); i++ {
			if reaches(from.Field(i).Type, target, seen) {
				return true
			}
		}
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		return reaches(from.Elem(), target, seen)
	case reflect.Map:
		return reaches(from.Key(), target, seen) || reaches(from.Elem(), target, seen)
	}
	return false
}

// TestCostRecencyMatchesPlan: over a random access sequence on a bounded
// cache, GetOrCost leaves the same hits, misses, evictions and LRU order as
// GetOrPlan, so ranking donors by cost evicts exactly what planning them did.
func TestCostRecencyMatchesPlan(t *testing.T) {
	m := costModels()
	pl := New(exact(), AlgoGroup)
	byPlan, byCost := NewCacheBounded(7), NewCacheBounded(7)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		src, dst := m[rng.Intn(len(m))], m[rng.Intn(len(m))]
		byPlan.GetOrPlan(pl, src, dst)
		byCost.GetOrCost(pl, src, dst)
	}
	order := func(c *Cache) []cacheKey {
		var keys []cacheKey
		for e := c.shards[0].head; e != nil; e = e.next {
			keys = append(keys, e.key)
		}
		return keys
	}
	a, b := byPlan.Counters(), byCost.Counters()
	if a.Hits != b.Hits || a.Misses != b.Misses || a.Evictions != b.Evictions || a.Size != b.Size {
		t.Fatalf("GetOrPlan counters %+v, GetOrCost counters %+v", a, b)
	}
	if !reflect.DeepEqual(order(byPlan), order(byCost)) {
		t.Fatal("LRU order differs between GetOrPlan and GetOrCost")
	}
}

// TestCostAndPlanRace mixes GetOrCost, Costed.Plan and GetOrPlan over shared
// pairs from many goroutines (run it under -race): every plan equals the
// serial planner's, every cost its plan's, and each pair is computed once —
// by one full plan or one cost pass — and has its steps built at most once.
func TestCostAndPlanRace(t *testing.T) {
	m := costModels()
	pl := New(exact(), AlgoGroup)
	c := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				src, dst := m[(g+i)%len(m)], m[(g*3+i/2)%len(m)]
				var p *metaop.Plan
				switch (g + i) % 3 {
				case 0:
					p = c.GetOrPlan(pl, src, dst)
				case 1:
					p = c.GetOrCost(pl, src, dst).Plan()
				default:
					k := c.GetOrCost(pl, src, dst)
					if k.Cost != pl.Cost(src, dst) {
						t.Errorf("%s→%s: cost differs from the planner's", src.Name, dst.Name)
					}
					continue
				}
				if !reflect.DeepEqual(p, pl.Plan(src, dst)) {
					t.Errorf("%s→%s: plan differs from the serial plan", src.Name, dst.Name)
				}
			}
		}(g)
	}
	wg.Wait()
	ct := c.Counters()
	if ct.Costed > ct.Size || ct.Planned > ct.Size || ct.Misses != ct.Size {
		t.Errorf("counters %+v: a pair was computed twice", ct)
	}
}

// TestColdPairCountsOneMiss races goroutines on one cold pair, through
// GetOrCost and then through GetOrPlan: exactly one caller misses and
// computes the pair, and every other caller is a hit, whether it found the
// entry or waited on the computation in flight. So Hits and Misses do not
// depend on how the callers interleave.
func TestColdPairCountsOneMiss(t *testing.T) {
	m := costModels()
	const callers = 8
	for _, tc := range []struct {
		name string
		call func(c *Cache, pl *Planner)
		work func(ct Counters) int
	}{
		{"cost", func(c *Cache, pl *Planner) { c.GetOrCost(pl, m[0], m[2]) }, func(ct Counters) int { return ct.Costed }},
		{"plan", func(c *Cache, pl *Planner) { c.GetOrPlan(pl, m[0], m[2]) }, func(ct Counters) int { return ct.Planned }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := New(exact(), AlgoGroup)
			c := NewCache()
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					tc.call(c, pl)
				}()
			}
			close(start)
			wg.Wait()
			ct := c.Counters()
			if ct.Misses != 1 || ct.Hits != callers-1 || tc.work(ct) != 1 {
				t.Errorf("counters %+v: want 1 miss, %d hits and the pair computed once", ct, callers-1)
			}
		})
	}
}
