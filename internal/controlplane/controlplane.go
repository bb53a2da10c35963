// Package controlplane scales the Optimus gateway horizontally: N
// cooperating gateway instances partition function and plan-pair ownership
// over a consistent-hash ring (package ring), forward requests to owners,
// and share one logical plan cache — the owner of a pair plans it once and
// peers pull the result instead of re-running the Hungarian planner.
//
// Membership changes ride the existing health state machine (package
// health): members the tracker says to avoid are de-owned (taken off the
// ring, kept alive), recovered members rejoin, and an explicit Drain hands a
// member's plans to the new owners before it departs, so ownership migration
// never loses or duplicates planning work.
//
// Concurrency is fenced by one topology RWMutex: request serving and model
// registration hold it for read, every ring mutation (drain, de-own,
// rejoin, join) holds it for write. Ring ownership is therefore frozen for
// the duration of any single request, which keeps the cross-gateway
// singleflight one-hop by construction: a non-owner miss pulls through the
// owner's loader-free GetOrCostLocal, and no pull can chain into a second
// pull or wait across a membership change. Members exchange pairs as the
// cache holds them — a Cost and, until some member builds the steps, the
// pairing they are built from — so no pull builds steps on the request path.
package controlplane

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/ring"
	"repro/internal/simulate"
)

// ErrNoMembers reports an invoke against an empty (or fully de-owned) ring.
var ErrNoMembers = errors.New("controlplane: no live members on the ring")

// ErrUnknownMember reports an operation naming a member the cluster does not
// have.
var ErrUnknownMember = errors.New("controlplane: unknown member")

// DefaultReplicateThreshold is the pull count at which a plan-pair is judged
// hot and pushed to every member's cache.
const DefaultReplicateThreshold = 2

// Config parameterizes an in-process multi-gateway cluster.
type Config struct {
	// Members is the initial gateway count (named gw-0..gw-N-1).
	Members int
	// Seed drives the ring hash and each member's sub-cluster seed
	// (member i runs at Base.Seed mixed with i, so members are distinct but
	// the whole cluster is reproducible).
	Seed int64
	// VNodes is the ring's virtual-node count (0 → ring.DefaultVNodes).
	VNodes int
	// Base is the per-member simulated sub-cluster configuration; Seed is
	// overridden per member.
	Base simulate.Config
	// Now supplies the cluster clock (defaults to wall offset, like the
	// gateway). Benches and tests inject virtual time.
	Now func() time.Duration
	// PlanWorkers bounds each member's offline-planning pool.
	PlanWorkers int
	// Precompute enables registration-time plan precomputation of ring-owned
	// pairs. Off, every plan is demanded by the serving path (the shared-
	// versus-isolated cache benchmark runs this way so cache traffic is
	// load-driven).
	Precompute bool
	// SharedCache installs the cross-gateway loader (owner-pull + hot
	// replication). Off, each member plans all its misses locally — the
	// isolated baseline the benchmark contrasts against.
	SharedCache bool
	// ReplicateThreshold is the pull count promoting a pair to every
	// member's cache (0 → DefaultReplicateThreshold, negative disables
	// replication).
	ReplicateThreshold int
	// Health configures the member health tracker driving de-own/rejoin; the
	// zero value disables it (members only leave via Drain).
	Health health.Config
}

// member is one gateway instance plus its cluster-side bookkeeping.
type member struct {
	name string
	// idx is the member's stable health-tracker index, assigned at creation
	// and never reused.
	idx int
	gw  *gateway.Gateway

	draining bool

	// forwards counts requests served here that entered at another member;
	// pulls counts plans fetched from this member by peers.
	forwards, pulls int
}

// Cluster is an in-process multi-gateway control plane. The HTTP equivalent
// for separate processes is Proxy.
type Cluster struct {
	cfg Config

	// topo fences topology: Invoke/RegisterModel hold it for read, ring
	// mutations (Drain, Reconcile, Join) for write. The ring itself is only
	// accessed under topo.
	topo sync.RWMutex
	ring *ring.Ring

	// mu guards the fields below: counters, the catalog, pull tallies and
	// the health tracker (which is not itself concurrency-safe).
	mu      sync.Mutex
	members map[string]*member
	catalog map[string]*model.Graph
	// order is the catalog's registration order (deterministic enumeration
	// for handoff copy passes).
	order []string
	// pullCounts tallies cross-gateway pulls per pair key; reaching the
	// replicate threshold pushes the plan everywhere.
	pullCounts   map[string]int
	replications int
	forwards     int
	nextIdx      int
	tracker      *health.Tracker
	now          func() time.Duration
}

// NewCluster builds and starts cfg.Members gateways.
func NewCluster(cfg Config) *Cluster {
	if cfg.Members <= 0 {
		cfg.Members = 1
	}
	if cfg.ReplicateThreshold == 0 {
		cfg.ReplicateThreshold = DefaultReplicateThreshold
	}
	now := cfg.Now
	if now == nil {
		// Default interactive clock, like gateway.New; benches inject
		// virtual time (controlplane is a real-time package, so wall reads
		// are allowed here).
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	cl := &Cluster{
		cfg:        cfg,
		ring:       ring.New(cfg.Seed, cfg.VNodes),
		members:    make(map[string]*member),
		catalog:    make(map[string]*model.Graph),
		pullCounts: make(map[string]int),
		now:        now,
	}
	if cfg.Health.Enabled {
		// Size the tracker for the initial membership plus join headroom;
		// indices are stable and never reused.
		cl.tracker = health.New(cfg.Health, cfg.Members+8)
	}
	for i := 0; i < cfg.Members; i++ {
		name := fmt.Sprintf("gw-%d", i)
		cl.addMemberLocked(name)
		cl.ring.Add(name)
	}
	return cl
}

// pairKey is the ring key of an ordered plan pair. The separator cannot
// appear in model names (they come from zoo registries and HTTP
// registrations of validated graphs).
func pairKey(src, dst string) string { return src + "\x00" + dst }

// addMemberLocked creates a gateway for name and registers it with the
// cluster (not the ring). Callers hold topo exclusively or are inside
// NewCluster.
func (cl *Cluster) addMemberLocked(name string) *member {
	sub := cl.cfg.Base
	// splitmix-style index mixing keeps sub-cluster fault/noise streams
	// distinct per member while the whole cluster stays a function of Seed.
	sub.Seed = cl.cfg.Seed + int64(cl.nextIdx+1)*int64(0x9e3779b9)
	m := &member{name: name, idx: cl.nextIdx}
	cl.nextIdx++
	gcfg := gateway.Config{
		Cluster:     sub,
		Now:         cl.now,
		PlanWorkers: cl.cfg.PlanWorkers,
	}
	if cl.cfg.Precompute {
		gcfg.PlanPairFilter = func(src, dst *model.Graph) bool {
			return cl.ownsPair(name, src.Name, dst.Name)
		}
	} else {
		gcfg.PlanPairFilter = func(src, dst *model.Graph) bool { return false }
	}
	m.gw = gateway.New(gcfg)
	if cl.cfg.SharedCache {
		m.gw.Env().Plans.SetLoader(cl.loaderFor(m))
	}
	cl.members[name] = m
	return m
}

// ownsPair reports whether name currently owns the ordered pair on the ring.
// Called from registration-time plan-pair filters, which run under topo read
// (registration) — never from precompute workers, which are loader-free.
func (cl *Cluster) ownsPair(name, src, dst string) bool {
	owner, ok := cl.ring.Owner(pairKey(src, dst))
	return ok && owner == name
}

// loaderFor builds the cross-gateway plan loader for m: a local miss pulls
// the pair from its ring owner (one hop — the owner's side never consults
// its own loader), tallying pulls and replicating hot pairs. Self-owned or
// unroutable pairs return false and plan locally.
func (cl *Cluster) loaderFor(m *member) func(src, dst *model.Graph) (planner.Costed, bool) {
	return func(src, dst *model.Graph) (planner.Costed, bool) {
		key := pairKey(src.Name, dst.Name)
		// Ring reads are safe here: the serving path that triggered this
		// miss holds topo for read, so ownership cannot move mid-pull.
		owner, ok := cl.ring.Owner(key)
		if !ok || owner == m.name {
			return planner.Costed{}, false
		}
		cl.mu.Lock()
		tgt, live := cl.members[owner]
		cl.mu.Unlock()
		if !live {
			return planner.Costed{}, false
		}
		env := tgt.gw.Env()
		k := env.Plans.GetOrCostLocal(env.Planner, src, dst)

		cl.mu.Lock()
		tgt.pulls++
		cl.pullCounts[key]++
		replicate := cl.cfg.ReplicateThreshold > 0 && cl.pullCounts[key] == cl.cfg.ReplicateThreshold
		var targets []*member
		if replicate {
			cl.replications++
			for _, om := range cl.members {
				if om != m && om != tgt {
					targets = append(targets, om)
				}
			}
			sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })
		}
		cl.mu.Unlock()
		// Hot pair: push it to every other member so future misses
		// everywhere become local hits (the puller's own insert happens in
		// its lookup's flight).
		for _, om := range targets {
			om.gw.Env().Plans.Put(src, dst, k)
		}
		return k, true
	}
}

// RegisterModel registers m on every non-draining member (the broadcast that
// keeps catalogs identical cluster-wide). Each member's plan precompute is
// filtered to its ring-owned pairs.
func (cl *Cluster) RegisterModel(g *model.Graph) error {
	cl.topo.RLock()
	defer cl.topo.RUnlock()
	cl.mu.Lock()
	if _, dup := cl.catalog[g.Name]; dup {
		cl.mu.Unlock()
		return fmt.Errorf("controlplane: model %q: %w", g.Name, gateway.ErrDuplicateModel)
	}
	cl.catalog[g.Name] = g
	cl.order = append(cl.order, g.Name)
	targets := cl.liveMembersLocked()
	cl.mu.Unlock()
	for _, m := range targets {
		if err := m.gw.RegisterModel(g); err != nil && !errors.Is(err, gateway.ErrDuplicateModel) {
			return fmt.Errorf("controlplane: registering %s on %s: %w", g.Name, m.name, err)
		}
	}
	return nil
}

// liveMembersLocked returns the non-draining members sorted by name; callers
// hold cl.mu.
func (cl *Cluster) liveMembersLocked() []*member {
	out := make([]*member, 0, len(cl.members))
	for _, m := range cl.members {
		if !m.draining {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Invoke serves one request for function fn arriving at entry member `entry`
// at time now: the ring resolves the owner, non-owned requests forward, and
// the owner's gateway serves. forwarded reports whether the request crossed
// members.
func (cl *Cluster) Invoke(entry, fn string, now time.Duration) (rec metrics.Record, forwarded bool, err error) {
	cl.topo.RLock()
	defer cl.topo.RUnlock()
	owner, ok := cl.ring.Owner(fn)
	if !ok {
		return metrics.Record{}, false, ErrNoMembers
	}
	cl.mu.Lock()
	m, live := cl.members[owner]
	if !live {
		cl.mu.Unlock()
		return metrics.Record{}, false, fmt.Errorf("%w: ring owner %q", ErrUnknownMember, owner)
	}
	forwarded = entry != owner
	if forwarded {
		cl.forwards++
		m.forwards++
	}
	idx := m.idx
	cl.mu.Unlock()

	rec, err = m.gw.Invoke(fn, now)

	if cl.tracker != nil {
		cl.mu.Lock()
		if err != nil {
			cl.tracker.ObserveFailure(idx, now)
		} else {
			cl.tracker.ObserveServed(idx, now, rec.End-rec.Start)
		}
		cl.mu.Unlock()
	}
	return rec, forwarded, err
}

// Owner resolves fn's ring owner.
func (cl *Cluster) Owner(fn string) (string, bool) {
	cl.topo.RLock()
	defer cl.topo.RUnlock()
	return cl.ring.Owner(fn)
}

// Members returns the current member names, sorted.
func (cl *Cluster) Members() []string {
	cl.topo.RLock()
	defer cl.topo.RUnlock()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]string, 0, len(cl.members))
	for n := range cl.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Member returns a member's gateway (tests and stats readers).
func (cl *Cluster) Member(name string) (*gateway.Gateway, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	m, ok := cl.members[name]
	if !ok {
		return nil, false
	}
	return m.gw, true
}

// PlanningQuiesce waits for every member's precompute backlog.
func (cl *Cluster) PlanningQuiesce() {
	cl.mu.Lock()
	ms := make([]*member, 0, len(cl.members))
	for _, m := range cl.members {
		ms = append(ms, m)
	}
	cl.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		m.gw.PlanningQuiesce()
		m.gw.Env().Plans.FlightsQuiesce()
	}
}

// Drain removes a member gracefully: it stops receiving registrations,
// finishes its planning backlog, leaves the ring, hands every pair it holds,
// cost-only ones included, to the pairs' new owners, and departs. The
// topology write lock makes the leave-plus-handoff atomic with respect to
// serving: a request either routed to the member before the drain (and was
// fully served), or routes to the new owner and finds the copied pair — no
// request observes the gap, so
// nothing is lost and nothing is planned twice.
func (cl *Cluster) Drain(name string) error {
	cl.mu.Lock()
	m, ok := cl.members[name]
	if !ok || m.draining {
		cl.mu.Unlock()
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownMember, name)
		}
		return fmt.Errorf("controlplane: member %q already draining", name)
	}
	m.draining = true
	cl.mu.Unlock()

	// Finish the member's own planning work while it still owns its keys
	// (and still serves): after this, its cache holds every pair it owes.
	m.gw.PlanningQuiesce()
	m.gw.Env().Plans.FlightsQuiesce()

	cl.topo.Lock()
	// No requests or registrations are in flight past this point, and the
	// member's planning pipeline is quiet: its cache is final.
	cl.ring.Remove(name)
	cl.handoffLocked(m)
	cl.mu.Lock()
	delete(cl.members, name)
	if cl.tracker != nil {
		cl.tracker.NoteDrained(m.idx, cl.now())
	}
	cl.mu.Unlock()
	cl.topo.Unlock()
	return nil
}

// handoffLocked copies every pair the leaving side holds, cost-only or
// with steps, to the pair's current ring owner. Callers hold topo
// exclusively; the catalog is enumerated in registration order so the copy
// pass is deterministic.
func (cl *Cluster) handoffLocked(from *member) {
	cl.mu.Lock()
	names := append([]string(nil), cl.order...)
	graphs := make(map[string]*model.Graph, len(cl.catalog))
	for k, v := range cl.catalog {
		graphs[k] = v
	}
	cl.mu.Unlock()
	env := from.gw.Env()
	for _, srcName := range names {
		for _, dstName := range names {
			if srcName == dstName {
				continue
			}
			k, ok := env.Plans.Get(graphs[srcName], graphs[dstName])
			if !ok {
				continue
			}
			owner, ok := cl.ring.Owner(pairKey(srcName, dstName))
			if !ok || owner == from.name {
				continue
			}
			cl.mu.Lock()
			tgt, live := cl.members[owner]
			cl.mu.Unlock()
			if live {
				tgt.gw.Env().Plans.Put(graphs[srcName], graphs[dstName], k)
			}
		}
	}
}

// Join adds a fresh member: it registers the whole catalog, takes its ring
// position, and is warmed by the reverse handoff — every pair the ring now
// assigns to it is copied from the pair's previous owner, so joining moves
// ownership without re-planning anything.
func (cl *Cluster) Join(name string) error {
	cl.topo.Lock()
	defer cl.topo.Unlock()
	cl.mu.Lock()
	if _, dup := cl.members[name]; dup {
		cl.mu.Unlock()
		return fmt.Errorf("controlplane: member %q already present", name)
	}
	m := cl.addMemberLocked(name)
	names := append([]string(nil), cl.order...)
	graphs := make(map[string]*model.Graph, len(cl.catalog))
	for k, v := range cl.catalog {
		graphs[k] = v
	}
	cl.mu.Unlock()

	// Warm before owning: copy the joiner's stolen pairs from their current
	// owners, then flip the ring. Registration after the ring flip filters
	// precompute to owned pairs, all of which the copy just made cache hits.
	stolen := make(map[string]string) // pair key → old owner
	for _, s := range names {
		for _, d := range names {
			if s != d {
				if o, ok := cl.ring.Owner(pairKey(s, d)); ok {
					stolen[pairKey(s, d)] = o
				}
			}
		}
	}
	cl.ring.Add(name)
	env := m.gw.Env()
	for _, s := range names {
		for _, d := range names {
			if s == d {
				continue
			}
			key := pairKey(s, d)
			newOwner, ok := cl.ring.Owner(key)
			if !ok || newOwner != name {
				continue
			}
			oldName := stolen[key]
			cl.mu.Lock()
			old, live := cl.members[oldName]
			cl.mu.Unlock()
			if !live {
				continue
			}
			if k, ok := old.gw.Env().Plans.Get(graphs[s], graphs[d]); ok {
				env.Plans.Put(graphs[s], graphs[d], k)
			}
		}
	}
	for _, n := range names {
		if err := m.gw.RegisterModel(graphs[n]); err != nil {
			return fmt.Errorf("controlplane: joining %s: %w", name, err)
		}
	}
	return nil
}

// Reconcile drives ring membership from the health tracker: members the
// tracker says to avoid are de-owned (removed from the ring but kept alive,
// caches intact), and previously de-owned members that recovered rejoin. A
// no-op without a health tracker. Returns the members de-owned and rejoined.
func (cl *Cluster) Reconcile(now time.Duration) (deowned, rejoined []string) {
	if cl.tracker == nil {
		return nil, nil
	}
	cl.topo.Lock()
	defer cl.topo.Unlock()
	cl.mu.Lock()
	type decision struct {
		name  string
		avoid bool
	}
	var ds []decision
	for _, m := range cl.members {
		if m.draining {
			continue
		}
		ds = append(ds, decision{m.name, cl.tracker.Avoid(m.idx, now)})
	}
	cl.mu.Unlock()
	sort.Slice(ds, func(i, j int) bool { return ds[i].name < ds[j].name })
	for _, d := range ds {
		onRing := cl.ring.Has(d.name)
		switch {
		case d.avoid && onRing:
			// De-own, don't drain: the member keeps its cache, so pairs it
			// planned survive for a pull-through once it rejoins; its
			// re-owned pairs may be re-planned by the new owners meanwhile
			// (bounded duplicate work, unlike losing the member entirely).
			cl.ring.Remove(d.name)
			deowned = append(deowned, d.name)
		case !d.avoid && !onRing:
			cl.ring.Add(d.name)
			rejoined = append(rejoined, d.name)
		}
	}
	return deowned, rejoined
}

// Health exposes the member health tracker (nil when disabled). Callers
// racing with invokes must not mutate it.
func (cl *Cluster) Health() *health.Tracker { return cl.tracker }

// MemberStats is one member's cluster-side view.
type MemberStats struct {
	Name string
	// OnRing reports ring membership (de-owned members are off-ring but
	// alive); Draining marks a member mid-Drain.
	OnRing, Draining bool
	// Forwards counts requests served here that entered elsewhere; Pulls
	// counts plans peers fetched from here.
	Forwards, Pulls int
	// Requests is the member's served-request count; Cache its plan-cache
	// counter snapshot.
	Requests int
	Cache    planner.Counters
}

// Stats summarizes the cluster: per-member rows sorted by name plus the
// cluster-wide totals.
type Stats struct {
	Members      []MemberStats
	Forwards     int
	Replications int
	RingMembers  int
}

// Stats returns a point-in-time cluster summary.
func (cl *Cluster) Stats() Stats {
	cl.topo.RLock()
	defer cl.topo.RUnlock()
	cl.mu.Lock()
	ms := make([]*member, 0, len(cl.members))
	for _, m := range cl.members {
		ms = append(ms, m)
	}
	out := Stats{Forwards: cl.forwards, Replications: cl.replications, RingMembers: cl.ring.Len()}
	cl.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		requests := 0
		m.gw.Online().ReadCollector(func(col *metrics.Collector) { requests = col.Len() })
		cl.mu.Lock()
		row := MemberStats{
			Name: m.name, OnRing: cl.ring.Has(m.name), Draining: m.draining,
			Forwards: m.forwards, Pulls: m.pulls, Requests: requests,
			Cache: m.gw.Env().Plans.Counters(),
		}
		cl.mu.Unlock()
		out.Members = append(out.Members, row)
	}
	return out
}

// Rule is one row of the control-plane protocol table, kept in lockstep with
// DESIGN.md's "Multi-gateway control plane" section by the design test.
type Rule struct {
	Event, Action, Note string
}

// Protocol returns the control-plane event/action protocol.
func Protocol() []Rule {
	return []Rule{
		{"invoke", "route-to-owner", "the entry member resolves the function's ring owner and forwards; the owner serves and records the request"},
		{"plan-miss", "pull-from-owner", "a non-owner cache miss pulls the pair's entry (its cost, with its steps or the pairing that builds them) from the pair's ring owner in one hop (the owner side never pulls again); pulls are singleflighted per pair"},
		{"hot-pair", "replicate", "a pair pulled ReplicateThreshold times is pushed to every member's cache, making later misses local hits"},
		{"register", "broadcast", "models register on every non-draining member; each member precomputes only the pairs it owns on the ring"},
		{"suspect", "deown", "a member the health tracker flags is removed from the ring but kept alive with its cache intact; requests route around it"},
		{"recovered", "rejoin", "a de-owned member that clears the health tracker re-enters the ring, taking back only its own keys"},
		{"drain", "handoff", "a draining member finishes its planning backlog, leaves the ring, copies every pair it holds, cost-only ones included, to the new owners under the topology write lock, and departs"},
	}
}
