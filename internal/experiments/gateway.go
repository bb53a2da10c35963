package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/controlplane"
	"repro/internal/policy"
	"repro/internal/ring"
	"repro/internal/simulate"
)

// BenchGatewayFile is the artifact `optimus-bench gateway` emits; `make
// check` (the gatewayguard gate) and CI validate its contents.
const BenchGatewayFile = "BENCH_gateway.json"

// Gateway experiment: the multi-gateway control plane under a fixed offered
// load. Two sections:
//
//   - Scaling sweep: the same seeded request sequence is served by clusters
//     of 1/2/4/8 cooperating gateways. Each member serves its ring-owned
//     functions serially on a virtual clock, so the aggregate simulated
//     makespan is the longest member's — the measure of how well
//     consistent-hash routing spreads one front end's load over N. The
//     acceptance gate requires ≥2× simulated throughput at 4 gateways.
//     Routing overhead (ring lookup + member resolution) is timed on the
//     wall clock per request; its p99 is reported but excluded from the
//     determinism proof.
//   - Cache contrast: at 4 gateways with precompute off, the identical
//     demand-driven trace (70 s inter-arrivals, so transform planning is
//     the only plan source) runs once with the shared sharded plan cache
//     (owner-pull + hot replication) and once isolated, with a mid-trace
//     drain in both. Shared must plan no more pairs than isolated and hold
//     an equal-or-better hit ratio.
//
// A second same-seed run of the 4-gateway scale point and the shared cache
// run must be byte-identical (wall-clock fields zeroed) — the determinism
// proof.

// GatewayScaleGateways are the cluster sizes the sweep measures.
var GatewayScaleGateways = []int{1, 2, 4, 8}

// GatewayScalePoint is one cluster size's measurements over the fixed load.
type GatewayScalePoint struct {
	Gateways int `json:"gateways"`
	Served   int `json:"served"`
	// Forwards counts requests that entered at a non-owner and were routed.
	Forwards int `json:"forwards"`
	// SimMakespanMS is the longest member's virtual-clock makespan;
	// SimReqPerSec is Served over that makespan — the aggregate simulated
	// throughput; ScaleX normalizes it to the single-gateway point.
	SimMakespanMS float64 `json:"sim_makespan_ms"`
	SimReqPerSec  float64 `json:"sim_req_per_sec"`
	ScaleX        float64 `json:"scale_x"`
	// RoutingP99Us is the wall-clock p99 of ring-owner resolution per
	// request (excluded from the determinism proof).
	RoutingP99Us float64 `json:"routing_p99_us"`
}

// GatewayCacheRun is one cache mode's counters over the demand-driven trace.
type GatewayCacheRun struct {
	Mode   string `json:"mode"`
	Served int    `json:"served"`
	// Planned/Hits/Misses/Remote sum the members' plan-cache counters,
	// with Planned counting every planning operation: step constructions
	// plus step-free cost passes. Remote counts owner-pulls (always 0 when
	// isolated), Replications the hot-pair pushes. HitRatio is the fraction
	// of probes resolved without running the planner — a pull counts, since
	// the plan already existed somewhere in the cluster:
	// (hits+remote)/(hits+misses).
	Planned      int     `json:"planned"`
	Hits         int     `json:"hits"`
	Misses       int     `json:"misses"`
	Remote       int     `json:"remote"`
	Replications int     `json:"replications"`
	HitRatio     float64 `json:"hit_ratio"`
	// DrainedAt is the request index where one member drained mid-trace.
	DrainedAt int `json:"drained_at"`
}

// GatewayResult is the persisted artifact.
type GatewayResult struct {
	Seed     int64 `json:"seed"`
	VNodes   int   `json:"vnodes"`
	Models   int   `json:"models"`
	Requests int   `json:"requests"`

	Scale []GatewayScalePoint `json:"scale"`
	// ScaleX4 repeats the 4-gateway ScaleX — the ≥2 acceptance gate.
	ScaleX4 float64 `json:"scale_x4"`

	CacheModels   int             `json:"cache_models"`
	CacheRequests int             `json:"cache_requests"`
	Shared        GatewayCacheRun `json:"shared"`
	Isolated      GatewayCacheRun `json:"isolated"`

	// Deterministic records that second same-seed runs of the 4-gateway
	// scale point and the shared cache run were byte-identical with
	// wall-clock fields zeroed.
	Deterministic bool `json:"deterministic"`
}

// gatewayModels returns the first n imgclsmob models by registry order.
func gatewayModels(n int) []*simulate.Function {
	names := imgZoo.Names()
	fns := make([]*simulate.Function, 0, n)
	for _, name := range names[:n] {
		fns = append(fns, &simulate.Function{Name: name, Model: imgZoo.MustGet(name)})
	}
	return fns
}

// gatewayCluster builds an in-process control plane of size members. The
// scale sweep gives each member slots slots to hold the whole catalog warm
// (measuring routing parallelism, not capacity thrash); the cache contrast
// shrinks slots below the catalog so evictions force the transform path.
func gatewayCluster(o Options, members, nodes, slots int, precompute, shared bool, clock func() time.Duration) *controlplane.Cluster {
	return controlplane.NewCluster(controlplane.Config{
		Members: members,
		Seed:    o.Seed,
		Base: simulate.Config{
			Policy:            policy.Optimus{},
			Nodes:             nodes,
			ContainersPerNode: slots,
			Profile:           o.Profile,
		},
		Now:         clock,
		PlanWorkers: 2,
		Precompute:  precompute,
		SharedCache: shared,
	})
}

// gatewayScaleOnce serves the fixed seeded sequence on a members-sized
// cluster. Each ring owner serves its requests serially on its own virtual
// clock; the aggregate makespan is the slowest owner's.
func gatewayScaleOnce(o Options, members, requests int, fns []*simulate.Function) GatewayScalePoint {
	clocks := make(map[string]time.Duration)
	var makespan time.Duration
	cl := gatewayCluster(o, members, 4, 4, true, true, func() time.Duration { return makespan })
	for _, f := range fns {
		if err := cl.RegisterModel(f.Model); err != nil {
			panic(err)
		}
	}
	cl.PlanningQuiesce()

	names := cl.Members()
	rng := rand.New(rand.NewSource(o.Seed))
	routing := make([]time.Duration, 0, requests)
	pt := GatewayScalePoint{Gateways: members}
	for i := 0; i < requests; i++ {
		fn := fns[rng.Intn(len(fns))].Name
		entry := names[i%len(names)]
		wall := time.Now()
		owner, ok := cl.Owner(fn)
		routing = append(routing, time.Since(wall))
		if !ok {
			panic("gateway: no ring owner for " + fn)
		}
		rec, forwarded, err := cl.Invoke(entry, fn, clocks[owner])
		if err != nil {
			panic(err)
		}
		if forwarded {
			pt.Forwards++
		}
		if rec.End > clocks[owner] {
			clocks[owner] = rec.End
		}
		if clocks[owner] > makespan {
			makespan = clocks[owner]
		}
		pt.Served++
	}
	pt.SimMakespanMS = msF(makespan)
	if makespan > 0 {
		pt.SimReqPerSec = float64(pt.Served) / makespan.Seconds()
	}
	sort.Slice(routing, func(i, j int) bool { return routing[i] < routing[j] })
	if len(routing) > 0 {
		idx := (len(routing)*99 + 99) / 100
		if idx >= len(routing) {
			idx = len(routing) - 1
		}
		pt.RoutingP99Us = float64(routing[idx]) / float64(time.Microsecond)
	}
	return pt
}

// gatewayCacheOnce replays the demand-driven trace (70 s inter-arrivals, so
// every plan is demanded by a transform, never precomputed) at 4 gateways
// with the cache shared or isolated, draining one member halfway through.
func gatewayCacheOnce(o Options, requests int, fns []*simulate.Function, shared bool) GatewayCacheRun {
	var now time.Duration
	cl := gatewayCluster(o, 4, 2, 2, false, shared, func() time.Duration { return now })
	for _, f := range fns {
		if err := cl.RegisterModel(f.Model); err != nil {
			panic(err)
		}
	}

	mode := "isolated"
	if shared {
		mode = "shared"
	}
	run := GatewayCacheRun{Mode: mode, DrainedAt: requests / 2}
	names := cl.Members()
	for i := 0; i < requests; i++ {
		if i == run.DrainedAt {
			if err := cl.Drain(names[len(names)-1]); err != nil {
				panic(err)
			}
			names = cl.Members()
		}
		fn := fns[i%len(fns)].Name
		// 70 s steps sit between the 60 s idle threshold and the 10 min
		// keep-alive, so re-invocations demand transforms (the only plan
		// source with precompute off).
		now += 70 * time.Second
		if _, _, err := cl.Invoke(names[i%len(names)], fn, now); err != nil {
			panic(err)
		}
		run.Served++
	}
	cl.PlanningQuiesce()

	st := cl.Stats()
	for _, m := range st.Members {
		run.Planned += m.Cache.Planned + m.Cache.Costed
		run.Hits += m.Cache.Hits
		run.Misses += m.Cache.Misses
		run.Remote += m.Cache.Remote
	}
	run.Replications = st.Replications
	if run.Hits+run.Misses > 0 {
		run.HitRatio = float64(run.Hits+run.Remote) / float64(run.Hits+run.Misses)
	}
	return run
}

// simOnly zeroes the wall-clock fields and the derived ScaleX (normalized
// only on the first run), leaving the virtual-time measurements the
// determinism proof compares.
func (p GatewayScalePoint) simOnly() GatewayScalePoint {
	p.RoutingP99Us = 0
	p.ScaleX = 0
	return p
}

// Gateway runs the scaling sweep and the shared-versus-isolated cache
// contrast, then re-runs the 4-gateway scale point and the shared cache run
// with the same seed to prove byte-identical determinism.
func Gateway(o Options) GatewayResult {
	o = o.withDefaults()
	requests, cacheReqs := 600, 160
	if o.Quick {
		requests, cacheReqs = 240, 80
	}
	scaleFns := gatewayModels(12)
	cacheFns := gatewayModels(6)

	res := GatewayResult{
		Seed:          o.Seed,
		VNodes:        ring.DefaultVNodes,
		Models:        len(scaleFns),
		Requests:      requests,
		CacheModels:   len(cacheFns),
		CacheRequests: cacheReqs,
	}
	for _, g := range GatewayScaleGateways {
		res.Scale = append(res.Scale, gatewayScaleOnce(o, g, requests, scaleFns))
	}
	base := res.Scale[0].SimReqPerSec
	for i := range res.Scale {
		if base > 0 {
			res.Scale[i].ScaleX = res.Scale[i].SimReqPerSec / base
		}
		if res.Scale[i].Gateways == 4 {
			res.ScaleX4 = res.Scale[i].ScaleX
		}
	}
	res.Shared = gatewayCacheOnce(o, cacheReqs, cacheFns, true)
	res.Isolated = gatewayCacheOnce(o, cacheReqs, cacheFns, false)

	// Determinism proof: same-seed reruns of the 4-gateway scale point and
	// the shared cache run, compared byte-for-byte with wall fields zeroed.
	var scale4 GatewayScalePoint
	for _, pt := range res.Scale {
		if pt.Gateways == 4 {
			scale4 = pt
		}
	}
	first, err := json.Marshal(struct {
		Scale  GatewayScalePoint
		Shared GatewayCacheRun
	}{scale4.simOnly(), res.Shared})
	if err != nil {
		panic(err)
	}
	second, err := json.Marshal(struct {
		Scale  GatewayScalePoint
		Shared GatewayCacheRun
	}{
		gatewayScaleOnce(o, 4, requests, scaleFns).simOnly(),
		gatewayCacheOnce(o, cacheReqs, cacheFns, true),
	})
	if err != nil {
		panic(err)
	}
	res.Deterministic = bytes.Equal(first, second)
	return res
}

// WriteFile persists the artifact into dir, creating it if needed.
func (r GatewayResult) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("gateway: creating %s: %w", dir, err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, BenchGatewayFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("gateway: writing %s: %w", path, err)
	}
	return nil
}

// Render prints the sweep and cache-contrast digests.
func (r GatewayResult) Render() string {
	rows := make([][]string, 0, len(r.Scale))
	for _, p := range r.Scale {
		rows = append(rows, []string{
			fmt.Sprint(p.Gateways),
			fmt.Sprint(p.Served),
			fmt.Sprint(p.Forwards),
			fmt.Sprintf("%.0f", p.SimMakespanMS),
			fmt.Sprintf("%.1f", p.SimReqPerSec),
			fmt.Sprintf("%.2fx", p.ScaleX),
			fmt.Sprintf("%.1f", p.RoutingP99Us),
		})
	}
	cacheRows := make([][]string, 0, 2)
	for _, c := range []GatewayCacheRun{r.Shared, r.Isolated} {
		cacheRows = append(cacheRows, []string{
			c.Mode,
			fmt.Sprint(c.Served),
			fmt.Sprint(c.Planned),
			fmt.Sprint(c.Hits),
			fmt.Sprint(c.Misses),
			fmt.Sprint(c.Remote),
			fmt.Sprint(c.Replications),
			fmt.Sprintf("%.4f", c.HitRatio),
		})
	}
	det := "deterministic: same-seed reruns were byte-identical (wall fields excluded)"
	if !r.Deterministic {
		det = "NONDETERMINISTIC: same-seed reruns diverged"
	}
	return "Extension: multi-gateway control plane (consistent-hash routing; shared sharded plan cache vs isolated, with a mid-trace drain)\n" +
		table([]string{"gateways", "served", "forwards", "makespan(ms)", "sim req/s", "scale", "route p99(µs)"}, rows) +
		"\n" + table([]string{"cache", "served", "planned", "hits", "misses", "pulls", "replications", "hit ratio"}, cacheRows) +
		"\n" + det
}
