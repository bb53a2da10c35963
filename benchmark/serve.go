package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/cost"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/ring"
	"repro/internal/simulate"
)

// Serving settings, as cmd/optimus-server wires the gateway.
const (
	maxInflight    = 256
	requestTimeout = 10 * time.Second
	// Each gateway simulates 64 nodes × 32 containers, sized by replaying
	// serve-steady's invokes at 4,000 req/s, twice its rate, straight into
	// gateway.Invoke in virtual time. Warm service averages 56 ms there, so
	// about 450 containers would be half busy, but below about 2,000
	// containers the cold starts of the first second never drain: the
	// virtual backlog grows for the whole run, and the cost of each invoke
	// with it. With 2,048 containers the measured phase is about 96% warm at
	// a simulated p50 near the warm compute time. The shape is a constant,
	// not measured per run, so that a change to the program cannot resize
	// the workload it is judged on.
	simNodes          = 64
	containersPerNode = 32
)

// member is one gateway of a serving workload, on its own loopback
// listener. handler is what the listener serves: the gateway handler, or
// the proxy in front of it.
type member struct {
	id      string
	gw      *gateway.Gateway
	created time.Time // the gateway clock's origin, near enough
	handler http.Handler
	srv     *http.Server
	url     string
	served  chan error
}

// cluster is the serving workload's set of gateways.
type cluster struct {
	members []*member
}

// startCluster starts n gateways, each holding at most planCacheMax plans
// (0: unbounded). With n > 1 each gateway sits behind controlplane.NewProxy,
// exactly as cmd/optimus-server runs with -peers.
func startCluster(n, planCacheMax int, seed int64, rec *recorder) (*cluster, error) {
	c := &cluster{}
	var peers []controlplane.Peer
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		m := &member{id: fmt.Sprintf("gw-%d", i), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
		u, err := url.Parse(m.url)
		if err != nil {
			return nil, err
		}
		peers = append(peers, controlplane.Peer{ID: m.id, URL: u})
		c.members = append(c.members, m)
	}
	for i, m := range c.members {
		m.created = time.Now()
		m.gw = gateway.New(gateway.Config{
			Cluster: simulate.Config{
				Nodes:             simNodes,
				ContainersPerNode: containersPerNode,
				Profile:           cost.CPU(),
				Policy:            policy.Optimus{},
				Seed:              seed,
				PlanCacheMax:      planCacheMax,
			},
			RequestTimeout: requestTimeout,
			MaxInflight:    maxInflight,
		})
		m.handler = traced(rec, "gateway", m.gw.Handler())
		if n > 1 {
			p, err := controlplane.NewProxy(m.id, peers, seed, 0, m.handler)
			if err != nil {
				return nil, err
			}
			m.handler = traced(rec, "proxy", p)
		}
		m.srv = &http.Server{Handler: m.handler, ReadHeaderTimeout: 5 * time.Second}
		go func(m *member, ln net.Listener) { m.served <- m.srv.Serve(ln) }(m, lns[i])
	}
	return c, nil
}

// close stops every listener, waits for the servers to return and for
// background planning to finish, and drops the gateways' forwarding
// connections.
func (c *cluster) close() error {
	var errs []error
	for _, m := range c.members {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := m.srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
		if err := <-m.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		m.gw.PlanningQuiesce()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

func (c *cluster) quiesce() {
	for _, m := range c.members {
		m.gw.PlanningQuiesce()
	}
}

// local serves one request in process through a member's outermost handler:
// checks and deletes read every member without opening a connection.
func (m *member) local(method, path string) (int, []byte) {
	rw := httptest.NewRecorder()
	m.handler.ServeHTTP(rw, httptest.NewRequest(method, path, nil))
	return rw.Code, rw.Body.Bytes()
}

// servingModels is a serving workload's model catalog, built in set-up:
// graphs, registration bodies and invoke bodies.
type servingModels struct {
	graphs   []*model.Graph
	register map[string][]byte
	invoke   map[string][]byte
}

func buildModels(graphs []*model.Graph) (servingModels, error) {
	sm := servingModels{graphs: graphs, register: map[string][]byte{}, invoke: map[string][]byte{}}
	for _, g := range graphs {
		body, err := json.Marshal(g)
		if err != nil {
			return sm, err
		}
		sm.register[g.Name] = body
		sm.invoke[g.Name], err = json.Marshal(map[string]string{"model": g.Name})
		if err != nil {
			return sm, err
		}
	}
	return sm, nil
}

// invokeResponse is the part of a POST /api/invoke answer the checks read.
type invokeResponse struct {
	Model     string  `json:"model"`
	Kind      string  `json:"start_kind"`
	WaitMS    float64 `json:"wait_ms"`
	InitMS    float64 `json:"init_ms"`
	LoadMS    float64 `json:"load_ms"`
	ComputeMS float64 `json:"compute_ms"`
	LatencyMS float64 `json:"latency_ms"`
}

var startKinds = func() map[string]bool {
	out := map[string]bool{}
	for k := metrics.StartWarm; k <= metrics.StartFanout; k++ {
		out[k.String()] = true
	}
	return out
}()

// validate checks a successful response: an invoke names its model and a
// known start kind, and its latency is the sum of its parts; a
// registration answers 201.
func validate(o *op, body []byte, out *outcome) error {
	switch o.kind {
	case opInvoke:
		var r invokeResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("invoke %s: %w", o.model, err)
		}
		if r.Model != o.model {
			return fmt.Errorf("invoke %s answered for %q", o.model, r.Model)
		}
		if !startKinds[r.Kind] {
			return fmt.Errorf("invoke %s: unknown start kind %q", o.model, r.Kind)
		}
		if sum := r.WaitMS + r.InitMS + r.LoadMS + r.ComputeMS; math.Abs(sum-r.LatencyMS) > 1e-6*math.Max(1, r.LatencyMS) {
			return fmt.Errorf("invoke %s: latency %v ms != wait+init+load+compute %v ms", o.model, r.LatencyMS, sum)
		}
		out.startKind, out.simMS = r.Kind, r.LatencyMS
	case opRegister:
		if out.status != http.StatusCreated {
			return fmt.Errorf("register %s: status %d, want 201", o.model, out.status)
		}
	}
	return nil
}

// senders is the number of load-generating goroutines and connections: no
// more than the machine's cores, and at most 2.
func senders() int { return max(1, min(2, runtime.NumCPU())) }

// phase is a named time range of a schedule; outcomes are bucketed by due
// time.
type phase struct {
	name     string
	from, to time.Duration
}

// schedule is a run's ops per sender, each list in due order.
type schedule [][]op

func (s schedule) sortByDue() {
	for _, ops := range s {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	}
}

// addInvokes adds Poisson invokes at rate over [from, to), split evenly over
// the senders; pick chooses each invoke's model and target at its due time.
func (s schedule) addInvokes(rng *rand.Rand, rate float64, from, to time.Duration, pick func(rng *rand.Rand, sender int, at time.Duration) op) {
	for i := range s {
		for _, at := range poissonTimes(rng, rate/float64(len(s)), to-from) {
			o := pick(rng, i, from+at)
			o.due = from + at
			s[i] = append(s[i], o)
		}
	}
}

// addStats adds one GET /api/stats per second over [from, to), alternating
// senders; urls[i] is sender i's gateway.
func (s schedule) addStats(from, to time.Duration, urls []string) {
	k := 0
	for at := from + time.Second/2; at < to; at += time.Second {
		i := k % len(s)
		s[i] = append(s[i], op{due: at, kind: opStats, method: http.MethodGet, url: urls[i] + "/api/stats"})
		k++
	}
}

// Phase names. Latencies are pooled over the one measured phase: in sizing,
// percentiles pooled over the whole measured time varied less from run to
// run than the median of three shorter windows' percentiles.
const (
	phaseWarmup   = "warmup"
	phaseMeasured = "measured"
	phaseUntraced = "untraced"
	phaseTraced   = "traced"
)

// servePhases lays out a run: a discarded warm-up, then the measured phase,
// or in a traced run an untraced and a traced phase of equal length.
func servePhases(b time.Duration, traced bool) []phase {
	warm := b / 10
	if traced {
		w := (b - warm) / 2
		return []phase{{phaseWarmup, 0, warm}, {phaseUntraced, warm, warm + w}, {phaseTraced, warm + w, warm + 2*w}}
	}
	return []phase{{phaseWarmup, 0, warm}, {phaseMeasured, warm, b}}
}

// servePass is the outcome of a phased schedule.
type servePass struct {
	sched  schedule
	outs   [][]outcome
	phases []phase
}

func runPhases(g *loadgen, sched schedule, phases []phase, rec *recorder) servePass {
	end := phases[len(phases)-1].to
	for _, ops := range sched {
		for j := range ops {
			ops[j].traced = rec != nil && phaseOf(phases, ops[j].due).name == phaseTraced
		}
	}
	g.rec = rec
	outs := g.run(context.Background(), sched, end+end/2+2*time.Second)
	g.rec = nil
	return servePass{sched: sched, outs: outs, phases: phases}
}

func phaseOf(phases []phase, at time.Duration) phase {
	for _, p := range phases {
		if at >= p.from && at < p.to {
			return p
		}
	}
	return phases[len(phases)-1]
}

// phase returns the named phase of the pass.
func (p servePass) phase(name string) phase {
	var ph phase
	for _, x := range p.phases {
		if x.name == name {
			ph = x
		}
	}
	return ph
}

// window summarizes one phase's ops of the given kind.
func (p servePass) window(name string, kind opKind) window {
	ph := p.phase(name)
	sub := make(schedule, len(p.sched))
	subOuts := make([][]outcome, len(p.sched))
	for i := range p.sched {
		for j, o := range p.sched[i] {
			if o.due >= ph.from && o.due < ph.to {
				sub[i] = append(sub[i], o)
				subOuts[i] = append(subOuts[i], p.outs[i][j])
			}
		}
	}
	w := summarize(sub, subOuts, kind, ph.to-ph.from)
	// Completion offsets are from the schedule start: the window spans
	// from its first due time to its last completion.
	w.span = max(w.nominal, w.span-ph.from)
	return w
}

// periodTail splits a phase into periods of the given length by due time and
// returns the median over periods of each period's q-th percentile invoke
// latency, in ms.
func (p servePass) periodTail(name string, every time.Duration, q float64) float64 {
	ph := p.phase(name)
	periods := map[time.Duration][]time.Duration{}
	for i := range p.sched {
		for j, o := range p.sched[i] {
			if out := &p.outs[i][j]; o.kind == opInvoke && out.ok() && o.due >= ph.from && o.due < ph.to {
				k := (o.due - ph.from) / every
				periods[k] = append(periods[k], out.latency)
			}
		}
	}
	var tails []float64
	for _, ls := range periods {
		sortDurations(ls)
		tails = append(tails, ms(pct(ls, q)))
	}
	return median(tails)
}

// account adds every op of the pass to the run's attempted and failed
// counts and records the failures.
func (p servePass) account(res *result) (okInvokes int) {
	for i := range p.sched {
		for j, o := range p.sched[i] {
			out := &p.outs[i][j]
			res.attempted++
			if !out.ok() {
				res.failed++
				detail := fmt.Sprintf("status %d", out.status)
				if out.err != nil {
					detail = out.err.Error()
				}
				res.fail(fmt.Sprintf("op %d", o.kind), fmt.Sprintf("%s %s at %v: %s", o.method, o.url, o.due, detail))
			} else if o.kind == opInvoke {
				okInvokes++
			}
		}
	}
	return okInvokes
}

// lateP99 is the generator's p99 lateness over every op of a phase.
func (p servePass) lateP99(name string) time.Duration {
	var lates []time.Duration
	for _, k := range []opKind{opInvoke, opStats, opRegister} {
		lates = append(lates, p.window(name, k).lates...)
	}
	sortDurations(lates)
	return pct(lates, 99)
}

// kindShares records the start-kind mix and simulated latency percentiles
// of a phase's invokes, as the responses report them.
func (p servePass) kindShares(l map[string]float64, name string) {
	var kinds [8]int
	var sim []time.Duration
	served := 0
	for i := range p.sched {
		for j, o := range p.sched[i] {
			out := &p.outs[i][j]
			if o.kind != opInvoke || !out.ok() || phaseOf(p.phases, o.due).name != name {
				continue
			}
			for k := metrics.StartWarm; k <= metrics.StartFanout; k++ {
				if k.String() == out.startKind {
					kinds[k]++
				}
			}
			sim = append(sim, time.Duration(out.simMS*float64(time.Millisecond)))
			served++
		}
	}
	setKindShares(l, kinds, served)
	sortDurations(sim)
	l["simulate.sim_p50_ms"] = ms(pct(sim, 50))
	l["simulate.sim_p99_ms"] = ms(pct(sim, 99))
}

// checkStats compares /api/stats requests, summed over members, with the
// invokes answered 200.
func checkStats(c *cluster, okInvokes int, res *result) {
	total := 0
	for _, m := range c.members {
		code, body := m.local(http.MethodGet, "/api/stats")
		var st struct {
			Requests int `json:"requests"`
			Shed     int `json:"shed"`
		}
		if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil {
			res.fail("stats", fmt.Sprintf("%s: status %d, %v", m.id, code, err))
			return
		}
		total += st.Requests
		res.layer["gateway.shed"] += float64(st.Shed)
	}
	if total != okInvokes {
		res.fail("stats", fmt.Sprintf("/api/stats requests sum to %d over members, but %d invokes were answered 200", total, okInvokes))
	}
}

// checkCatalog requires every member to list exactly want.
func checkCatalog(c *cluster, want []string, res *result) {
	want = append([]string(nil), want...)
	sort.Strings(want)
	for _, m := range c.members {
		code, body := m.local(http.MethodGet, "/api/models")
		var got struct {
			Models []string `json:"models"`
		}
		if err := json.Unmarshal(body, &got); code != http.StatusOK || err != nil {
			res.fail("catalog", fmt.Sprintf("%s: status %d, %v", m.id, code, err))
			continue
		}
		if fmt.Sprint(got.Models) != fmt.Sprint(want) {
			res.fail("catalog", fmt.Sprintf("%s lists %d models %v, want %d %v", m.id, len(got.Models), got.Models, len(want), want))
		}
	}
}

// plannerCounters records the plan caches' counters summed over members.
func plannerCounters(c *cluster, l map[string]float64) {
	var hits, lookups int
	var p50, p99 []float64
	for _, m := range c.members {
		plans := m.gw.Env().Plans
		ct, pt := plans.Counters(), plans.PlanTimes()
		hits += ct.Hits
		lookups += ct.Hits + ct.Misses
		l["planner.planned"] += float64(ct.Planned)
		l["planner.evictions"] += float64(ct.Evictions)
		l["planner.deduped"] += float64(ct.Deduped)
		p50 = append(p50, us(pt.P50))
		p99 = append(p99, us(pt.P99))
	}
	l["planner.hit_ratio"] = ratio(hits, lookups)
	l["planner.plan_p50_us"] = median(p50)
	l["planner.plan_p99_us"] = median(p99)
}

// attributeSpans derives the serving path's per-layer numbers from the
// traced window's spans. Invoke requests are rooted at "client"; a forwarded
// invoke has a "proxy.owner" span under its entry "proxy".
func attributeSpans(spans []span, l map[string]float64) {
	self := selfTimes(spans)
	byReq := map[int64][]span{}
	var reqs []int64
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		if _, ok := byReq[s.Req]; !ok {
			reqs = append(reqs, s.Req)
		}
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var transport, proxySelf, hop, handlers, registerProxy, registerGW, stats []float64
	var handlerDur []time.Duration
	invokes, forwarded := 0, 0
	var invokeSpans []span
	for _, req := range reqs {
		ss := byReq[req]
		var root string
		for _, s := range ss {
			if s.Parent == 0 {
				root = s.Name
			}
		}
		switch root {
		case "client":
			invokes++
			invokeSpans = append(invokeSpans, ss...)
			var entry, owner float64
			isFwd := false
			for _, s := range ss {
				switch s.Name {
				case "client":
					transport = append(transport, us(time.Duration(self[s.ID])))
				case "proxy":
					entry = us(time.Duration(self[s.ID]))
				case "proxy.owner":
					owner, isFwd = us(time.Duration(self[s.ID])), true
				case "gateway":
					handlers = append(handlers, us(time.Duration(s.dur())))
					handlerDur = append(handlerDur, time.Duration(s.dur()))
				}
			}
			if isFwd {
				forwarded++
				hop = append(hop, entry+owner)
			} else if entry > 0 {
				proxySelf = append(proxySelf, entry)
			}
		case "client.register":
			for _, s := range ss {
				switch s.Name {
				case "proxy":
					registerProxy = append(registerProxy, ms(time.Duration(self[s.ID])))
				case "gateway":
					registerGW = append(registerGW, ms(time.Duration(s.dur())))
				}
			}
		case "client.stats":
			for _, s := range ss {
				if s.Name == "gateway" {
					stats = append(stats, us(time.Duration(s.dur())))
				}
			}
		}
	}
	sortDurations(handlerDur)
	l["transport.self_us"] = mean(transport)
	l["gateway.handler_p50_us"] = us(pct(handlerDur, 50))
	l["gateway.handler_p99_us"] = us(pct(handlerDur, 99))
	l["gateway.codec_us"] = mean(handlers) // minus online.invoke_us, by the caller
	l["controlplane.forward_fraction"] = ratio(forwarded, invokes)
	l["controlplane.proxy_self_us"] = mean(proxySelf)
	l["controlplane.forward_hop_us"] = mean(hop)
	l["controlplane.mirror_ms"] = median(registerProxy)
	l["gateway.register_ms"] = median(registerGW)
	l["metrics.stats_read_us"] = median(stats)
	l["trace.self_sum_error"] = selfSumError(invokeSpans, "client")
}

// directCalls replays the traced window's invoke sequence straight into
// gateway.Invoke, in virtual time paced as recorded: once on one goroutine
// and once split over two, which gives the per-call cost with and without
// contention for the Online lock.
func directCalls(p servePass, gwFor func(model string) *member, l map[string]float64) {
	type call struct {
		m     *member
		model string
		due   time.Duration
	}
	var calls []call
	for i := range p.sched {
		for j, o := range p.sched[i] {
			if o.kind == opInvoke && p.outs[i][j].ok() && phaseOf(p.phases, o.due).name == phaseTraced {
				if m := gwFor(o.model); m != nil {
					calls = append(calls, call{m, o.model, o.due})
				}
			}
		}
	}
	if len(calls) == 0 {
		return
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].due < calls[j].due })
	replay := func(cs []call) {
		base := time.Since(cs[0].m.created) - cs[0].due
		for _, c := range cs {
			// Timing only: the same invokes were answered and checked over HTTP.
			_, _ = c.m.gw.Invoke(c.model, base+c.due)
		}
	}
	t0 := time.Now()
	replay(calls)
	single := time.Since(t0) / time.Duration(len(calls))
	halves := [2][]call{}
	for i, c := range calls {
		halves[i%2] = append(halves[i%2], c)
	}
	var wg sync.WaitGroup
	t0 = time.Now()
	for _, h := range halves {
		wg.Add(1)
		go func(h []call) {
			defer wg.Done()
			replay(h)
		}(h)
	}
	wg.Wait()
	contended := time.Since(t0) * 2 / time.Duration(len(calls))
	l["online.invoke_us"] = us(single)
	l["online.invoke_contended_us"] = us(contended)
	l["online.lock_wait_us"] = us(contended - single)
	l["gateway.codec_us"] -= us(single)
}

// ringOwnerNS times ring.Ring.Owner over the traced window's invoke models,
// on a ring built as every proxy builds its own.
func ringOwnerNS(p servePass, c *cluster, seed int64) float64 {
	r := ring.New(seed, 0)
	for _, m := range c.members {
		r.Add(m.id)
	}
	var keys []string
	for i := range p.sched {
		for _, o := range p.sched[i] {
			if o.kind == opInvoke && phaseOf(p.phases, o.due).name == phaseTraced {
				keys = append(keys, o.model)
			}
		}
	}
	if len(keys) == 0 {
		return 0
	}
	n := 0
	t0 := time.Now()
	for n < 200_000 {
		for _, k := range keys {
			r.Owner(k)
		}
		n += len(keys)
	}
	return float64(time.Since(t0)) / float64(n)
}

// finishServe records what both serving workloads report from a pass;
// tailMS gives latency_tail_ms from the pass and a phase name.
// Client-observed numbers come from the measured phase, or from the untraced
// phase of a traced run.
func finishServe(rc *runConfig, res *result, c *cluster, p servePass, okInvokes int, gc0 gcState, tailMS func(servePass, string) float64) {
	l := res.layer
	name := phaseMeasured
	if rc.rec != nil {
		name = phaseUntraced
	}
	w := p.window(name, opInvoke)
	res.e2e["latency_p50_ms"] = ms(pct(w.latencies, 50))
	res.e2e["latency_tail_ms"] = tailMS(p, name)
	res.e2e["throughput_rps"] = float64(w.ok) / w.span.Seconds()
	l["loadgen.p99_ms"] = ms(pct(w.latencies, 99))
	l["loadgen.achieved_ratio"] = w.achieved()
	l["loadgen.late_p99_ms"] = ms(p.lateP99(name))
	l["runtime.gc_cycles"], l["runtime.gc_pause_ms"] = readGC().sub(gc0)
	reg := p.window(name, opRegister).latencies
	l["gateway.register_p50_ms"] = ms(pct(reg, 50))
	l["gateway.register_p90_ms"] = ms(pct(reg, 90))
	p.kindShares(l, name)
	checkStats(c, okInvokes, res)
	plannerCounters(c, l)
	for _, m := range c.members {
		if len(c.members) == 1 {
			break
		}
		_, body := m.local(http.MethodGet, "/api/ring")
		var st struct {
			MirrorErrors int `json:"mirror_errors"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			res.fail("ring", fmt.Sprintf("%s: %v", m.id, err))
		}
		l["controlplane.mirror_errors"] += float64(st.MirrorErrors)
	}
	if rc.rec != nil {
		traced := p.window(phaseTraced, opInvoke)
		l["trace.overhead"] = ms(pct(traced.latencies, 50))/res.e2e["latency_p50_ms"] - 1
		attributeSpans(rc.rec.snapshot(), l)
	}
}
