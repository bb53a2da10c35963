// Package gateway implements the Optimus control plane of §7: an HTTP
// gateway that accepts model registrations and inference invocations,
// dispatches them to (simulated) containers under the Optimus scheduler,
// and reports per-request latency breakdowns and aggregate statistics.
//
// The API mirrors the paper's prototype:
//
//	POST /api/models         register a model (JSON graph; see model package)
//	GET  /api/models         list registered models
//	GET  /api/models/{name}  fetch one model's structure
//	DELETE /api/models/{name} unregister a model
//	POST /api/invoke         invoke a function: {"model": "<name>"}
//	GET  /api/plan           inspect a transformation plan: ?src=a&dst=b
//	GET  /api/stats          aggregate service statistics
//	GET  /api/cluster        node and container state
//	GET  /healthz            liveness
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metaop"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/policy"
	"repro/internal/repository"
	"repro/internal/simulate"
)

// Sentinel errors callers (and the HTTP layer) can test with errors.Is to
// pick the right status code.
var (
	// ErrDuplicateModel rejects registering a name twice (409).
	ErrDuplicateModel = errors.New("model already registered")
	// ErrUnknownModel rejects operations on unregistered names (404).
	ErrUnknownModel = errors.New("unknown model")
)

// Config parameterizes the gateway.
type Config struct {
	// Cluster configures the backing cluster (policy, nodes, profile...).
	Cluster simulate.Config
	// Now supplies the current offset from server start; defaults to wall
	// clock. Tests inject a fake.
	Now func() time.Duration
	// Repository, when non-nil, persists registered models to disk and
	// preloads the models already stored there (§7: the paper deploys
	// models to a Docker volume; this is the equivalent store).
	Repository *repository.Store
	// RequestTimeout bounds each request's handling time; responses past
	// it are 503s. Zero disables the timeout.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently handled requests: beyond it the
	// gateway sheds load with 503 + Retry-After instead of queueing
	// unboundedly. Zero means no bound.
	MaxInflight int
	// CheckpointPath, when non-empty, enables durable checkpoint/restore:
	// SaveCheckpoint writes atomic snapshots there and New auto-restores an
	// existing (valid) checkpoint, quarantining containers whose functions
	// are no longer registered. A corrupt file logs a warning and the
	// gateway starts clean.
	CheckpointPath string
	// PlanWorkers bounds the offline-planning worker pool that precomputes
	// pairwise transformation plans in the background when models register
	// (§4.4 Module 3). Zero or negative defaults to GOMAXPROCS.
	PlanWorkers int
}

// Gateway is the HTTP control plane.
type Gateway struct {
	mu     sync.Mutex
	online *simulate.Online
	now    func() time.Duration
	models map[string]*model.Graph
	store  *repository.Store
	// pre is the parallel offline-planning pipeline: registrations enqueue
	// their pairwise plans here and return without planning inline.
	pre *planner.Precomputer

	timeout time.Duration
	// inflight, when non-nil, is the admission semaphore bounding
	// concurrent requests; shed and panics count load-shed responses and
	// recovered handler panics for /api/stats.
	inflight chan struct{}
	shed     atomic.Int64
	panics   atomic.Int64

	// ckptPath/ckptInj drive durable checkpointing; the injector (possibly
	// nil) deterministically fails writes for chaos testing. The counters
	// and restore summary feed /api/stats.
	ckptPath     string
	ckptInj      *faults.Injector
	ckptSaves    atomic.Int64
	ckptFailures atomic.Int64

	restoredModels  int
	restoredRecords int
	quarantined     []string
}

// New builds a gateway with no registered models.
func New(cfg Config) *Gateway {
	now := cfg.Now
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	if cfg.Cluster.Policy == nil {
		cfg.Cluster.Policy = policy.Optimus{}
	}
	g := &Gateway{
		online:   simulate.NewOnline(cfg.Cluster, nil),
		now:      now,
		models:   make(map[string]*model.Graph),
		store:    cfg.Repository,
		timeout:  cfg.RequestTimeout,
		ckptPath: cfg.CheckpointPath,
		ckptInj:  faults.New(cfg.Cluster.Seed^0x9e3779b9, faults.Rates{CheckpointWrite: cfg.Cluster.Faults.CheckpointWrite}),
	}
	env := g.online.Env()
	g.pre = planner.NewPrecomputer(env.Planner, env.Plans, cfg.PlanWorkers)
	if cfg.MaxInflight > 0 {
		g.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if g.store != nil {
		preloaded := make([]*model.Graph, 0, g.store.Len())
		for _, name := range g.store.Names() {
			if m, ok := g.store.Get(name); ok {
				g.models[m.Name] = m
				g.online.AddFunction(&simulate.Function{Name: m.Name, Model: m})
				preloaded = append(preloaded, m)
			}
		}
		// Repository reopen: warm the plan cache for the whole preloaded
		// catalog in the background — New returns immediately and the
		// N·(N−1) ordered pairs fan across the worker pool.
		for i, m := range preloaded {
			g.pre.EnqueueAll(m, preloaded[:i])
		}
	}
	if g.ckptPath != "" {
		g.restoreFromDisk()
	}
	return g
}

// Handler returns the gateway's HTTP handler, wrapped in the hardening
// middleware stack: per-request timeout around panic recovery around
// bounded-admission load shedding.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/api/models", g.handleModels)
	mux.HandleFunc("/api/models/", g.handleModelByName)
	mux.HandleFunc("/api/invoke", g.handleInvoke)
	mux.HandleFunc("/api/plan", g.handlePlan)
	mux.HandleFunc("/api/stats", g.handleStats)
	mux.HandleFunc("/api/cluster", g.handleCluster)

	var h http.Handler = mux
	h = g.shedLoad(h)
	h = g.recoverPanics(h)
	if g.timeout > 0 {
		h = http.TimeoutHandler(h, g.timeout, `{"error":"request timed out"}`)
	}
	return h
}

// recoverPanics converts handler panics into 500s instead of killing the
// connection (and, with http.Server, leaking a broken keep-alive).
func (g *Gateway) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				g.panics.Add(1)
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// shedLoad admits at most MaxInflight concurrent requests; the rest are
// answered immediately with 503 + Retry-After so clients back off instead
// of piling onto a saturated gateway.
func (g *Gateway) shedLoad(next http.Handler) http.Handler {
	if g.inflight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case g.inflight <- struct{}{}:
			defer func() { <-g.inflight }()
			next.ServeHTTP(w, r)
		default:
			g.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errors.New("gateway saturated, retry later"))
		}
	})
}

// RegisterModel adds a model programmatically (same path as POST
// /api/models). When a new model registers, transformation plans against the
// already-registered models are precomputed into the plan cache — the
// "planning strategy caching" of §4.4 Module 3. Planning runs asynchronously
// on the gateway's bounded worker pool, so registration returns in O(1)
// regardless of catalog size; a request arriving before its pair's plan is
// ready falls back to planning inline through the same singleflighted cache,
// so behaviour is unchanged. PlanningQuiesce waits for the backlog.
func (g *Gateway) RegisterModel(m *model.Graph) error {
	if err := m.Validate(); err != nil {
		return err
	}
	g.mu.Lock()
	if _, dup := g.models[m.Name]; dup {
		g.mu.Unlock()
		return fmt.Errorf("gateway: model %q: %w", m.Name, ErrDuplicateModel)
	}
	g.models[m.Name] = m
	existing := make([]*model.Graph, 0, len(g.models))
	for _, other := range g.models {
		if other.Name != m.Name {
			existing = append(existing, other)
		}
	}
	g.mu.Unlock()
	// Sorted so the planning pipeline sees pairs in a fixed order: under an
	// LRU-bounded plan cache, enqueue order decides eviction order, and map
	// order here would make cache contents differ run to run.
	sort.Slice(existing, func(i, j int) bool { return existing[i].Name < existing[j].Name })

	if g.store != nil {
		// Persist before going live: if the store rejects the model the
		// registration is rolled back, keeping gateway and store agreed.
		if err := g.store.Put(m); err != nil {
			g.mu.Lock()
			delete(g.models, m.Name)
			g.mu.Unlock()
			return fmt.Errorf("gateway: persisting %s: %w", m.Name, err)
		}
	}
	g.online.AddFunction(&simulate.Function{Name: m.Name, Model: m})
	g.pre.EnqueueAll(m, existing)
	return nil
}

// Invoke serves one request for the named model at `now` through the same
// path as POST /api/invoke, minus HTTP: tests and benchmarks call it to
// drive load without a listener.
func (g *Gateway) Invoke(name string, now time.Duration) (metrics.Record, error) {
	g.mu.Lock()
	_, ok := g.models[name]
	g.mu.Unlock()
	if !ok {
		return metrics.Record{}, fmt.Errorf("gateway: model %q: %w", name, ErrUnknownModel)
	}
	return g.online.Invoke(name, now)
}

// Env exposes the gateway's policy environment (planner, plan cache), for
// tests and stats readers.
func (g *Gateway) Env() *simulate.Env { return g.online.Env() }

// Online exposes the backing online simulator (stats readers).
func (g *Gateway) Online() *simulate.Online { return g.online }

// PlanningQuiesce blocks until the offline-planning pipeline has no
// outstanding pairs — every registration enqueued so far is fully planned.
func (g *Gateway) PlanningQuiesce() { g.pre.Quiesce() }

// PlanningReady reports whether the offline-planning backlog is empty.
func (g *Gateway) PlanningReady() bool { return g.pre.Ready() }

// Precomputer exposes the offline-planning pipeline (for tests and stats).
func (g *Gateway) Precomputer() *planner.Precomputer { return g.pre }

func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		g.mu.Lock()
		names := make([]string, 0, len(g.models))
		for n := range g.models {
			names = append(names, n)
		}
		g.mu.Unlock()
		// Sorted so the same registered set always serializes identically.
		sort.Strings(names)
		writeJSON(w, http.StatusOK, map[string]any{"models": names})
	case http.MethodPost:
		var m model.Graph
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := g.RegisterModel(&m); err != nil {
			// Only a duplicate registration is a conflict; a model that
			// fails validation is the client's bad request.
			status := http.StatusBadRequest
			if errors.Is(err, ErrDuplicateModel) {
				status = http.StatusConflict
			}
			writeError(w, status, err)
			return
		}
		st := m.Stats()
		writeJSON(w, http.StatusCreated, map[string]any{
			"name": m.Name, "ops": st.Ops, "params": st.Params,
		})
	default:
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET or POST"))
	}
}

func (g *Gateway) handleModelByName(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/models/")
	switch r.Method {
	case http.MethodGet:
		g.mu.Lock()
		m, ok := g.models[name]
		g.mu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", name))
			return
		}
		writeJSON(w, http.StatusOK, m)
	case http.MethodDelete:
		if err := g.UnregisterModel(name); err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, ErrUnknownModel) {
				status = http.StatusNotFound
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
	default:
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET or DELETE"))
	}
}

// UnregisterModel removes a model from the gateway. In-flight containers
// holding it keep running until the keep-alive recycles them; new requests
// for the name are rejected. The store is updated first: if the delete
// fails the model stays registered, so store and gateway never disagree.
func (g *Gateway) UnregisterModel(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.models[name]; !ok {
		return fmt.Errorf("gateway: model %q: %w", name, ErrUnknownModel)
	}
	if g.store != nil {
		if err := g.store.Delete(name); err != nil {
			return fmt.Errorf("gateway: removing %s from store: %w", name, err)
		}
	}
	delete(g.models, name)
	g.online.RemoveFunction(name)
	return nil
}

// clusterNode is the /api/cluster view of one node.
type clusterNode struct {
	ID         int                `json:"id"`
	Containers []clusterContainer `json:"containers"`
	UsedMB     int                `json:"used_mb,omitempty"`
	Down       bool               `json:"down,omitempty"`
}

type clusterContainer struct {
	Function string  `json:"function"`
	Busy     bool    `json:"busy"`
	IdleSec  float64 `json:"idle_sec"`
	MemMB    int     `json:"mem_mb,omitempty"`
}

func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	now := g.now()
	nodes := g.online.Snapshot(now)
	out := make([]clusterNode, 0, len(nodes))
	for _, n := range nodes {
		cn := clusterNode{ID: n.ID, UsedMB: n.UsedMB(), Down: n.Down(now)}
		for _, c := range n.Containers {
			cn.Containers = append(cn.Containers, clusterContainer{
				Function: c.Fn.Name,
				Busy:     c.Busy(now),
				IdleSec:  c.IdleFor(now).Seconds(),
				MemMB:    c.MemMB,
			})
		}
		out = append(out, cn)
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": out})
}

// invokeRequest is the body of POST /api/invoke, mirroring the paper's
// query API (input data is carried but not interpreted by the simulator).
type invokeRequest struct {
	Model string          `json:"model"`
	Input json.RawMessage `json:"input,omitempty"`
}

type invokeResponse struct {
	Model     string  `json:"model"`
	Kind      string  `json:"start_kind"`
	WaitMS    float64 `json:"wait_ms"`
	InitMS    float64 `json:"init_ms"`
	LoadMS    float64 `json:"load_ms"`
	ComputeMS float64 `json:"compute_ms"`
	LatencyMS float64 `json:"latency_ms"`
	Retries   int     `json:"retries,omitempty"`
}

func (g *Gateway) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	var req invokeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Model == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing model"))
		return
	}
	rec, err := g.online.Invoke(req.Model, g.now())
	if err != nil {
		if errors.Is(err, simulate.ErrRequestDropped) {
			// Injected crashes exhausted the retry budget: a retryable
			// service failure, not a missing model.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, invokeResponse{
		Model:     req.Model,
		Kind:      rec.Kind.String(),
		WaitMS:    msF(rec.Wait),
		InitMS:    msF(rec.Init),
		LoadMS:    msF(rec.Load),
		ComputeMS: msF(rec.Compute),
		LatencyMS: msF(rec.Latency()),
		Retries:   rec.Retries,
	})
}

func (g *Gateway) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	srcName, dstName := r.URL.Query().Get("src"), r.URL.Query().Get("dst")
	g.mu.Lock()
	src, okS := g.models[srcName]
	dst, okD := g.models[dstName]
	g.mu.Unlock()
	if !okS || !okD {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown model in pair (%q, %q)", srcName, dstName))
		return
	}
	env := g.online.Env()
	plan := env.Plans.GetOrPlan(env.Planner, src, dst)
	counts := map[string]int{}
	for k, n := range plan.CountByKind() {
		counts[k.String()] = n
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"src":               srcName,
		"dst":               dstName,
		"steps":             len(plan.Steps),
		"counts":            counts,
		"est_ms":            msF(plan.EstCost),
		"scratch_ms":        msF(plan.ScratchCost),
		"load_from_scratch": plan.LoadFromScratch,
	})
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	var out map[string]any
	// Aggregates are computed under the server lock so they are consistent
	// with concurrent invocations.
	g.online.ReadCollector(func(col *metrics.Collector) {
		// Quick reuses the collector's cached aggregates (running kind counts,
		// the PR-4 sorted-latency view) instead of re-deriving maps and
		// re-walking records per stats call.
		q := col.Quick()
		out = map[string]any{
			"requests":           q.Requests,
			"mean_latency_ms":    msF(q.Mean),
			"p50_ms":             msF(q.P50),
			"p99_ms":             msF(q.P99),
			"warm_fraction":      q.Fraction(metrics.StartWarm),
			"transform_fraction": q.Fraction(metrics.StartTransform),
			"cold_fraction":      q.Fraction(metrics.StartCold),
			"fallback_fraction":  q.Fraction(metrics.StartFallback),
			"timeout_fraction":   q.Fraction(metrics.StartTimeout),
			"breaker_fraction":   q.Fraction(metrics.StartBreaker),
			"hedge_fraction":     q.Fraction(metrics.StartHedge),
			"faults": map[string]int{
				"transform_fallbacks":    col.Faults.TransformFallbacks,
				"load_retries":           col.Faults.LoadRetries,
				"crashes":                col.Faults.Crashes,
				"outages":                col.Faults.Outages,
				"retries":                col.Faults.Retries,
				"dropped":                col.Faults.Dropped,
				"hangs":                  col.Faults.Hangs,
				"watchdog_cancels":       col.Faults.WatchdogCancels,
				"breaker_short_circuits": col.Faults.BreakerShortCircuits,
				"slow_windows":           col.Faults.SlowWindows,
				"flaky_windows":          col.Faults.FlakyWindows,
				"flaky_fallbacks":        col.Faults.FlakyFallbacks,
				"bandwidth_windows":      col.Faults.BandwidthWindows,
				"hedged_transforms":      col.Faults.HedgedTransforms,
				"hedge_wins":             col.Faults.HedgeWins,
				"backoff_retries":        col.Faults.BackoffRetries,
			},
		}
	})
	out["shed"] = g.shed.Load()
	out["panics_recovered"] = g.panics.Load()
	out["supervisor"] = g.supervisorStats()
	out["planning"] = g.planningStats()
	writeJSON(w, http.StatusOK, out)
}

// planningStats summarizes the offline-planning pipeline for /api/stats:
// pipeline progress (readiness), singleflight dedup counters, plan-cache
// occupancy and per-pair planning-time percentiles. The cache's hit_ratio
// is hits ÷ lookups, where a lookup that waited on another caller's
// in-flight computation of the pair is a hit (also counted under deduped)
// and misses are the pairs this cache computed or loaded.
func (g *Gateway) planningStats() map[string]any {
	st := g.pre.Stats()
	ct := g.online.Env().Plans.Counters()
	pt := g.online.Env().Plans.PlanTimes()
	hitRatio := 0.0
	if ct.Hits+ct.Misses > 0 {
		hitRatio = float64(ct.Hits) / float64(ct.Hits+ct.Misses)
	}
	return map[string]any{
		"workers":    st.Workers,
		"enqueued":   st.Enqueued,
		"completed":  st.Completed,
		"pending":    st.Pending,
		"peak_queue": st.PeakQueue,
		"ready":      st.Pending == 0,
		"cache": map[string]any{
			"size":      ct.Size,
			"limit":     ct.Limit,
			"hits":      ct.Hits,
			"misses":    ct.Misses,
			"hit_ratio": hitRatio,
			"planned":   ct.Planned,
			"costed":    ct.Costed,
			"deduped":   ct.Deduped,
			"evictions": ct.Evictions,
		},
		"plan_time": map[string]any{
			"count":    pt.Count,
			"total_ms": msF(pt.Total),
			"max_ms":   msF(pt.Max),
			"p50_ms":   msF(pt.P50),
			"p95_ms":   msF(pt.P95),
			"p99_ms":   msF(pt.P99),
		},
	}
}

// supervisorStats summarizes the recovery layer for /api/stats: breaker
// transitions and open pairs, watchdog activity, and checkpoint/restore
// counters.
func (g *Gateway) supervisorStats() map[string]any {
	out := map[string]any{}
	if b := g.online.Breaker(); b != nil {
		st := b.Stats()
		out["breaker"] = map[string]any{
			"opens":          st.Opens,
			"reopens":        st.Reopens,
			"closes":         st.Closes,
			"short_circuits": st.ShortCircuits,
			"probes":         st.Probes,
			"open_pairs":     b.OpenPairs(),
		}
	}
	if wd := g.online.Watchdog(); wd != nil {
		st := wd.Stats()
		out["watchdog"] = map[string]any{
			"cancelled":        st.Cancelled,
			"leases_issued":    st.LeasesIssued,
			"leases_completed": st.LeasesCompleted,
			"leases_expired":   st.LeasesExpired,
			"leases_active":    wd.Active(),
		}
	}
	g.online.ReadHealth(func(tr *health.Tracker) {
		if tr == nil {
			return
		}
		now := g.now()
		sum := tr.Summarize()
		nodes := map[string]string{}
		for _, ns := range tr.Export() {
			nodes[strconv.Itoa(ns.Node)] = tr.State(ns.Node, now).String()
		}
		out["health"] = map[string]any{
			"episodes":    sum.Episodes,
			"mttr_ms":     sum.MTTRMS,
			"suspects":    sum.Suspects,
			"quarantines": sum.Quarantines,
			"drains":      sum.Drains,
			"recoveries":  sum.Recoveries,
			"clears":      sum.Clears,
			"nodes":       nodes,
		}
	})
	if g.ckptPath != "" {
		g.mu.Lock()
		restoredModels, restoredRecords := g.restoredModels, g.restoredRecords
		quarantined := append([]string(nil), g.quarantined...)
		g.mu.Unlock()
		out["checkpoint"] = map[string]any{
			"saves":            g.ckptSaves.Load(),
			"save_failures":    g.ckptFailures.Load(),
			"restored_models":  restoredModels,
			"restored_records": restoredRecords,
			"quarantined":      quarantined,
		}
	}
	return out
}

func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// PlanSummary is exported for reuse by command-line tools.
func PlanSummary(p *metaop.Plan) string {
	counts := p.CountByKind()
	parts := make([]string, 0, len(counts))
	for _, k := range metaop.Kinds() {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", k, counts[k]))
		}
	}
	mode := "transform"
	if p.LoadFromScratch {
		mode = "safeguard: load from scratch"
	}
	return fmt.Sprintf("%s→%s [%s] est %v (scratch %v): %s",
		p.SrcName, p.DstName, mode, p.EstCost, p.ScratchCost, strings.Join(parts, " "))
}
