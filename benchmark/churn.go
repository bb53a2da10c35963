package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/zoo"
)

// serve-churn settings: a catalog of Imgclsmob models that grows by one
// registration every regEvery; past maxCatalog the oldest model is deleted.
// Invokes only name models registered at least churnGuard ago and not due
// for deletion within churnGuard, so no invoke races its model's
// registration or deletion.
const (
	churnMembers    = 4
	churnInitial    = 24
	churnMaxCatalog = 32
	regEvery        = 200 * time.Millisecond
	churnGuard      = time.Second
	// churnMaxOps keeps the catalog to the 150 Imgclsmob models of at most
	// 100 operators: a plan's size grows with its models' operators, and
	// larger models would make the plan caches, not the serving path, the
	// run's memory.
	churnMaxOps = 100
	// churnPlanCache bounds each gateway's plan cache (-plan-cache-max) at
	// about 1.3× the live pairs of a 32-model catalog. Unregistering a model
	// does not drop its plans, so without a bound the caches grow by every
	// registration's 62 pairs on each of the 4 gateways.
	churnPlanCache = 1280
)

// runServeChurn: 4 gateways, each behind controlplane.NewProxy on its own
// listener; sender i always enters at gw-i. Invokes arrive open loop, Zipf
// over the catalog with the newest models most popular, beside one
// registration every 200 ms (mirrored to every peer by the entry proxy) and
// the deletes that keep the catalog at 32.
//
// The proxy mirrors only POST, so each delete is applied to every member,
// through its handler in process: the generator keeps to its two
// connections.
func runServeChurn(rc *runConfig) (*result, error) {
	res := newResult()
	heap := startHeapSampler()
	// 1,500 invokes/s, for the reason serve-steady gives: at 3,000/s each
	// sender's connection was about 70% busy, and over ten seeds the
	// quartiles of p50 spanned 20% of the median, against 10% at 1,500/s.
	rate := 1500.0
	if rc.quick {
		rate = 800
	}
	phases := servePhases(rc.budget(), rc.rec != nil)
	total := phases[len(phases)-1].to
	g := newLoadgen(senders())
	g.validate = validate
	defer g.close()

	var c *cluster
	var sched schedule
	var final []string
	for i := 0; i < rc.setups(); i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, err
			}
			g.close()
		}
		var err error
		var sm servingModels
		var zooT, genT, preT time.Duration
		d := rc.rec.step("setup", 0, 0, func(root int64) {
			zooT = rc.rec.step("zoo.build", root, 0, func(int64) {
				img := zoo.Imgclsmob()
				want := churnInitial + int(total/regEvery)
				var graphs []*model.Graph
				for _, n := range img.Names() {
					if g := img.MustGet(n); g.NumOps() <= churnMaxOps && len(graphs) < want {
						graphs = append(graphs, g)
					}
				}
				sm, err = buildModels(graphs)
			})
			if err != nil {
				return
			}
			c, err = startCluster(churnMembers, churnPlanCache, rc.seed, rc.rec)
			if err != nil {
				return
			}
			for _, gr := range sm.graphs[:churnInitial] {
				if err = register(g.clients[0], c.members[0].url, sm.register[gr.Name]); err != nil {
					return
				}
			}
			preT = rc.rec.step("planner.precompute", root, 0, func(int64) { c.quiesce() })
			genT = rc.rec.step("workload.gen", root, 0, func(int64) {
				sched, final = churnSchedule(c, sm, rate, total, rc.seed)
			})
		})
		if err != nil {
			return nil, err
		}
		res.setup(d, map[string]time.Duration{"zoo.build_s": zooT, "workload.gen_s": genT, "planner.precompute_s": preT})
	}
	defer c.close()

	gc0 := readGC()
	pass := runPhases(g, sched, phases, rc.rec)
	res.e2e["live_heap_mb"] = liveHeapMB()
	okInvokes := pass.account(res)
	// Each registration sets 4 gateways planning, and the invokes of the
	// next ~40 ms run slow. The tail is each 200 ms registration period's p99
	// (about the third slowest of its ~300 invokes), and latency_tail_ms is
	// the median over the periods: how far one registration slows the
	// invokes around it. The p99 pooled over the whole phase also depends
	// on the few periods a neighbour on the shared host slowed most; in two
	// ten-seed sweeps its quartiles spanned 24% and 37% of the median,
	// against 9% and 12% here.
	finishServe(rc, res, c, pass, okInvokes, gc0, func(p servePass, name string) float64 {
		return p.periodTail(name, regEvery, 99)
	})
	checkCatalog(c, final, res)
	if rc.rec != nil {
		live := map[string]bool{}
		for _, n := range final {
			live[n] = true
		}
		directCalls(pass, func(name string) *member {
			if live[name] {
				return c.members[0]
			}
			return nil
		}, res.layer)
		res.layer["ring.owner_ns"] = ringOwnerNS(pass, c, rc.seed)
	}
	res.layer["runtime.peak_heap_mb"] = heap.stop()
	return res, nil
}

// churnSchedule builds the serve-churn schedule over [0, total) and returns
// it with the catalog expected at the end.
func churnSchedule(c *cluster, sm servingModels, rate float64, total time.Duration, seed int64) (schedule, []string) {
	n := len(sm.graphs)
	regAt := make([]time.Duration, n)
	delAt := make([]time.Duration, n)
	for i := range regAt {
		regAt[i] = -time.Duration(churnInitial-i) * time.Hour // initial catalog, oldest first
		delAt[i] = 1<<63 - 1
	}
	sched := make(schedule, senders())
	catalog := make([]int, churnInitial)
	for i := range catalog {
		catalog[i] = i
	}
	base := c.members[0].url
	for k := churnInitial; k < n; k++ {
		at := time.Duration(k-churnInitial+1) * regEvery
		if at >= total {
			break
		}
		name := sm.graphs[k].Name
		regAt[k] = at
		catalog = append(catalog, k)
		sched[0] = append(sched[0], op{due: at, kind: opRegister, method: http.MethodPost, url: base + "/api/models", body: sm.register[name], model: name})
		if len(catalog) > churnMaxCatalog {
			old := sm.graphs[catalog[0]].Name
			delAt[catalog[0]] = at
			catalog = catalog[1:]
			sched[0] = append(sched[0], op{due: at, kind: opLocal, model: old, local: func() error {
				for _, m := range c.members {
					if code, body := m.local(http.MethodDelete, "/api/models/"+old); code != http.StatusOK {
						return fmt.Errorf("delete %s at %s: status %d: %s", old, m.id, code, body)
					}
				}
				return nil
			}})
		}
	}
	zipfs := map[int]zipf{}
	stable := make([]int, 0, n)
	sched.addInvokes(rand.New(rand.NewSource(subSeed(seed, 0))), rate, 0, total, func(rng *rand.Rand, sender int, at time.Duration) op {
		stable = stable[:0]
		for i := range sm.graphs {
			if regAt[i] <= at-churnGuard && delAt[i] > at+churnGuard {
				stable = append(stable, i)
			}
		}
		sort.Slice(stable, func(a, b int) bool { return regAt[stable[a]] > regAt[stable[b]] }) // newest first
		z, ok := zipfs[len(stable)]
		if !ok {
			z = newZipf(len(stable), 1.1)
			zipfs[len(stable)] = z
		}
		name := sm.graphs[stable[z.draw(rng)]].Name
		return op{kind: opInvoke, method: http.MethodPost, url: c.members[sender].url + "/api/invoke", body: sm.invoke[name], model: name}
	})
	urls := make([]string, len(sched))
	for i := range urls {
		urls[i] = c.members[i].url
	}
	sched.addStats(0, total, urls)
	sched.sortByDue()
	final := make([]string, len(catalog))
	for i, k := range catalog {
		final[i] = sm.graphs[k].Name
	}
	return sched, final
}
