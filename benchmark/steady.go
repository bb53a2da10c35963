package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/model"
	"repro/internal/zoo"
)

// serve-steady's knee, gateway.max_rps: log-space bisection between 1× and
// 8× the reference rate; a probe passes when p90 ≤ 10 ms, the achieved rate
// is at least 97% of the offered one and nothing fails. The limit is on p90,
// not p99: about 1% of invokes meet a GC cycle or a stats read holding the
// Online lock, so p99 sits on that population's edge and flips from probe
// to probe (with a 25 ms p99 limit the knee's quartiles spanned ±15%).
const (
	kneeProbes   = 6
	kneeMaxScale = 8
	kneeP90      = 10 * time.Millisecond
	kneeAchieved = 0.97
)

// register posts a model registration and requires 201.
func register(c *http.Client, base string, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, base+"/api/models", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, status, err := do(c, req)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("register: status %d: %s", status, resp)
	}
	return nil
}

// runServeSteady: one gateway serving the 21 representative models, every
// plan precomputed before timing, open-loop Poisson invokes at the
// reference rate with Zipf(1.1) popularity and one stats read per second.
// A traced run then finds the knee: the highest rate that still meets the
// p90 limit.
func runServeSteady(rc *runConfig) (*result, error) {
	res := newResult()
	heap := startHeapSampler()
	// 2,000 invokes/s: each sender holds one connection, and at 4,000/s each
	// was about two thirds busy, so on a host a neighbour slowed it neared
	// saturation and the queue behind it multiplied the slowdown. In runs on
	// such a host p50 rose 4–7× over a quiet run's, against 2–3× at 2,000/s.
	rate := 2000.0
	if rc.quick {
		rate = 1000
	}
	b := rc.budget()
	phaseBudget := b
	if rc.rec != nil {
		phaseBudget = b * 6 / 10
	}
	phases := servePhases(phaseBudget, rc.rec != nil)
	g := newLoadgen(senders())
	g.validate = validate
	defer g.close()

	var c *cluster
	var sm servingModels
	var sched schedule
	var pick func(*rand.Rand, int, time.Duration) op
	for i := 0; i < rc.setups(); i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, err
			}
			g.close()
		}
		var err error
		var zooT, genT, preT time.Duration
		d := rc.rec.step("setup", 0, 0, func(root int64) {
			zooT = rc.rec.step("zoo.build", root, 0, func(int64) {
				img, bz := zoo.Imgclsmob(), zoo.BERTZoo()
				cnn, bert := zoo.Representative21()
				var graphs []*model.Graph
				for _, n := range cnn {
					graphs = append(graphs, img.MustGet(n))
				}
				for _, n := range bert {
					graphs = append(graphs, bz.MustGet(n))
				}
				sm, err = buildModels(graphs)
			})
			if err != nil {
				return
			}
			c, err = startCluster(1, 0, rc.seed, rc.rec)
			if err != nil {
				return
			}
			base := c.members[0].url
			for _, gr := range sm.graphs {
				if err = register(g.clients[0], base, sm.register[gr.Name]); err != nil {
					return
				}
			}
			preT = rc.rec.step("planner.precompute", root, 0, func(int64) { c.quiesce() })
			genT = rc.rec.step("workload.gen", root, 0, func(int64) {
				pick = steadyPick(sm, newZipf(len(sm.graphs), 1.1), base)
				sched = steadySchedule(pick, base, rate, phases[len(phases)-1].to, subSeed(rc.seed, 0))
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
	if rc.rec != nil {
		var probeOK int
		res.layer["gateway.max_rps"], probeOK = knee(g, c, pick, rate, (b-phaseBudget)/kneeProbes, rc.seed, res)
		okInvokes += probeOK
	}
	finishServe(rc, res, c, pass, okInvokes, gc0, func(p servePass, name string) float64 {
		return ms(pct(p.window(name, opInvoke).latencies, 90))
	})
	checkCatalog(c, catalogNames(sm.graphs), res)
	if rc.rec != nil {
		directCalls(pass, func(string) *member { return c.members[0] }, res.layer)
	}
	res.layer["runtime.peak_heap_mb"] = heap.stop()
	return res, nil
}

// steadyPick draws serve-steady's invokes: a model by Zipf rank, sent to
// the gateway at base.
func steadyPick(sm servingModels, z zipf, base string) func(*rand.Rand, int, time.Duration) op {
	return func(rng *rand.Rand, _ int, _ time.Duration) op {
		name := sm.graphs[z.draw(rng)].Name
		return op{kind: opInvoke, method: http.MethodPost, url: base + "/api/invoke", body: sm.invoke[name], model: name}
	}
}

// steadySchedule is an open-loop schedule over [0, total) for the gateway at
// base: Poisson invokes at rate, drawn by pick from the seed, and one stats
// read per second.
func steadySchedule(pick func(*rand.Rand, int, time.Duration) op, base string, rate float64, total time.Duration, seed int64) schedule {
	sched := make(schedule, senders())
	sched.addInvokes(rand.New(rand.NewSource(seed)), rate, 0, total, pick)
	sched.addStats(0, total, []string{base, base})
	sched.sortByDue()
	return sched
}

func catalogNames(graphs []*model.Graph) []string {
	out := make([]string, len(graphs))
	for i, g := range graphs {
		out[i] = g.Name
	}
	return out
}

// knee bisects in log space for the highest offered rate that passes a
// probe. A failed probe is run once more before it counts: interference on
// a shared machine only ever slows the program down. It returns the rate
// and the invokes answered 200 across all probes.
func knee(g *loadgen, c *cluster, pick func(*rand.Rand, int, time.Duration) op, ref float64, dur time.Duration, seed int64, res *result) (float64, int) {
	okInvokes, k := 0, 0
	probe := func(rate float64) bool {
		k++
		sched := steadySchedule(pick, c.members[0].url, rate, dur, subSeed(seed, 100+k))
		outs := g.run(context.Background(), sched, dur+dur/2)
		w := summarize(sched, outs, opInvoke, dur)
		okInvokes += w.ok
		st := summarize(sched, outs, opStats, dur)
		pass := w.failed == 0 && st.failed == 0 && pct(w.latencies, 90) <= kneeP90 && w.achieved() >= kneeAchieved
		res.note("knee probe %.0f req/s: p90 %.2f ms, achieved %.3f, failed %d: pass %v",
			rate, ms(pct(w.latencies, 90)), w.achieved(), w.failed+st.failed, pass)
		return pass
	}
	lo, hi := ref, ref*kneeMaxScale
	for i := 0; i < kneeProbes; i++ {
		mid := math.Sqrt(lo * hi)
		if probe(mid) || probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, okInvokes
}
