// Package fanout grows warm model replicas of a bursting function in one
// wave of donations from its seed donors — the containers already warm for
// it when the burst triggers. Each recipient's local structure-load phase
// runs without holding a donor, ahead of the donor-occupying weights stream
// (Cicada's decoupled load). Donor scheduling is a first-class resource:
// each node carries a bounded number of concurrent outbound donation
// streams, recipients queue FIFO for a free one, and only seeds donate — a
// completed replica serves but never donates onward.
//
// The package owns the bookkeeping — membership, donor links, per-node
// donation slots and the quarantine verdict — while the simulation engine
// owns containers, costs, event scheduling and fault injection. All state
// lives in virtual time (time.Duration offsets) and every scheduling
// decision is deterministic: candidates are considered in member-ID order,
// so a fixed seed reproduces the exact same schedule.
//
// Fault model. A seed can die midway through streaming weights to a child
// (faults.FanoutCrash): its orphaned in-flight children are re-assigned to
// another seed with a free stream, or parked for the next one, and diverted
// to a from-scratch load when no seed is left. A child can complete with a
// silently corrupt model (faults.Corrupt): its rewiring ledger fails
// metaop.CheckEdgeBalance at completion, so the replica is quarantined and
// rebuilt before it serves anything. Since recipients never donate, the
// corruption cannot spread.
package fanout

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metaop"
	"repro/internal/metrics"
)

// Config parameterizes fan-out.
type Config struct {
	// Enabled turns fan-out on.
	Enabled bool
	// Bandwidth bounds concurrent outbound donation streams per node — the
	// donor-side transform bandwidth (default 2).
	Bandwidth int
	// Threshold is the per-node queue depth that triggers a fan-out for the
	// queued function (default 4).
	Threshold int
	// MaxRecipients caps how many new replicas one fan-out builds
	// (default 16).
	MaxRecipients int
}

// WithDefaults fills unset fields with their defaults.
func (c Config) WithDefaults() Config {
	if c.Bandwidth <= 0 {
		c.Bandwidth = 2
	}
	if c.Threshold <= 0 {
		c.Threshold = 4
	}
	if c.MaxRecipients <= 0 {
		c.MaxRecipients = 16
	}
	return c
}

// State is a member's lifecycle state.
type State uint8

const (
	// StateBuilding is a recipient under construction: loading structure,
	// waiting for a donor, streaming weights, or falling back to a load.
	StateBuilding State = iota
	// StateWarm is a seed, or a completed replica with a balanced rewiring
	// ledger, serving traffic.
	StateWarm
	// StateQuarantined is a replica whose ledger failed the edge-balance
	// check at completion. Its container is torn down before it serves, and
	// a replacement is rebuilt.
	StateQuarantined
	// StateDead is a member lost to a donor crash, a recipient loss or the
	// container lifecycle (eviction, repurpose, node outage).
	StateDead
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StateWarm:
		return "warm"
	case StateQuarantined:
		return "quarantined"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Transition is one edge of the member lifecycle, with its trigger. The
// DESIGN.md lifecycle table is kept in lockstep with Transitions by a guard
// test.
type Transition struct {
	From, To State
	Trigger  string
}

// Transitions returns the authoritative member lifecycle table.
func Transitions() []Transition {
	return []Transition{
		{StateBuilding, StateWarm, "weights stream or fallback load completed with a balanced rewiring ledger"},
		{StateBuilding, StateQuarantined, "weights stream completed with a corrupt-output draw; the ledger fails the edge-balance check and a replacement is rebuilt"},
		{StateBuilding, StateBuilding, "seed donor lost mid-stream; re-assigned to another seed or parked for the next free stream"},
		{StateBuilding, StateDead, "recipient container or node lost before completion; a replacement is rebuilt"},
		{StateWarm, StateDead, "seed crashed mid-donation, or the member was lost to the container lifecycle"},
	}
}

// phase refines StateBuilding.
type phase uint8

const (
	phaseNone    phase = iota
	phaseStruct        // loading graph structure locally (no donor needed)
	phasePending       // structure ready, parked until a donor slot frees
	phaseWeights       // streaming weights from the assigned donor
	phaseLoad          // falling back to a from-scratch load
)

// Member is a seed donor or a recipient replica.
type Member struct {
	// ID indexes the member within its tree (creation order).
	ID int
	// Node is the cluster node hosting the member's container.
	Node int
	// Parent is the seed the replica streams (or streamed) its weights
	// from; -1 for seeds and for children built by a from-scratch load.
	Parent int
	// State is the lifecycle state.
	State State
	// Seed marks a pre-existing warm donor adopted at tree start.
	Seed bool

	phase    phase
	kids     []int // children attached to this seed, in attach order
	inflight int   // children currently streaming from this member
}

// Assignment is a donor granted to a parked child.
type Assignment struct {
	Child, Donor, DonorNode int
}

// Reparent is the outcome for one orphaned in-flight child of a lost donor.
// NewDonor is the adopting seed's member ID, or -1 when no seed had a free
// stream and the child was parked.
type Reparent struct {
	Child, NewDonor, NewDonorNode int
}

// CompleteResult reports what a child completion triggered.
type CompleteResult struct {
	// Completed reports the member actually transitioned out of StateBuilding
	// here. False means the call was a stale no-op — the child was re-parented,
	// cancelled or diverted since the completion was scheduled — and the
	// caller must not treat the member as warm.
	Completed bool
	// Quarantined reports the replica failed the edge-balance check: the
	// caller tears its container down instead of serving from it.
	Quarantined bool
	// TreeDone reports the tree reached its target.
	TreeDone bool
	// ViaDonation reports the child finished a weights stream (as opposed to
	// a from-scratch fallback load) — the engine records breaker successes
	// only for actual donations.
	ViaDonation bool
}

// Tree is one fan-out warming Want replicas of one function from its seeds.
// Safe for concurrent use; the simulator calls it under its own lock but the
// race stress tests drive it from many goroutines.
type Tree struct {
	mu      sync.Mutex
	cfg     Config
	fn      string
	want    int
	start   time.Duration
	members []*Member
	streams map[int]int // node → active outbound donation streams
	pending []int       // FIFO of children parked waiting for a donor
	stats   metrics.FanoutStats
	done    bool
}

// New starts a tree warming want replicas of fn, triggered at virtual time
// now. Seeds are added separately with AddSeed.
func New(cfg Config, fn string, want int, now time.Duration) *Tree {
	cfg = cfg.WithDefaults()
	if want > cfg.MaxRecipients {
		want = cfg.MaxRecipients
	}
	t := &Tree{
		cfg:     cfg,
		fn:      fn,
		want:    want,
		start:   now,
		streams: make(map[int]int),
	}
	t.stats.Trees = 1
	return t
}

// Fn returns the target function name.
func (t *Tree) Fn() string { return t.fn }

// Want returns the target replica count.
func (t *Tree) Want() int { return t.want }

// Done reports whether the tree reached its target.
func (t *Tree) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Stats returns a snapshot of the tree's tallies.
func (t *Tree) Stats() metrics.FanoutStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Members returns a copy of the membership for inspection.
func (t *Tree) Members() []Member {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Member, len(t.members))
	for i, m := range t.members {
		out[i] = *m
		out[i].kids = append([]int(nil), m.kids...)
	}
	return out
}

// AddSeed adopts a pre-existing warm replica on the node as a donor and
// returns its member ID. Seeds do not count toward Want.
func (t *Tree) AddSeed(node int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := &Member{ID: len(t.members), Node: node, Parent: -1, State: StateWarm, Seed: true}
	t.members = append(t.members, m)
	return m.ID
}

// NeedRecipients returns how many recipients still have to be started:
// the target minus every live recipient (building or completed).
func (t *Tree) NeedRecipients() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.needLocked()
}

func (t *Tree) needLocked() int {
	live := 0
	for _, m := range t.members {
		if !m.Seed && (m.State == StateBuilding || m.State == StateWarm) {
			live++
		}
	}
	if n := t.want - live; n > 0 {
		return n
	}
	return 0
}

// StartRecipient places a new recipient on one of the candidate nodes
// (pre-filtered by the engine for capacity and health, in deterministic
// order) and returns its member ID. The recipient begins in the structure-
// load phase, which needs no donor — the engine schedules its completion and
// then calls StructDone. Placement spreads replicas: the candidate hosting
// the fewest live members wins, first-listed on ties.
func (t *Tree) StartRecipient(nodes []int) (child, node int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.needLocked() == 0 || len(nodes) == 0 {
		return 0, 0, false
	}
	hosted := make(map[int]int)
	for _, m := range t.members {
		if m.State == StateBuilding || m.State == StateWarm {
			hosted[m.Node]++
		}
	}
	best, bestN := -1, 0
	for _, n := range nodes {
		if best == -1 || hosted[n] < bestN {
			best, bestN = n, hosted[n]
		}
	}
	m := &Member{ID: len(t.members), Node: best, Parent: -1, State: StateBuilding, phase: phaseStruct}
	t.members = append(t.members, m)
	return m.ID, best, true
}

// StructDone moves the child from the structure-load phase to the donor
// queue and immediately tries to assign a donor. When no seed has a free
// stream the child parks until PumpPending hands one out.
func (t *Tree) StructDone(child int, eligible func(member, node int) bool) (Assignment, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[child]
	if m.State != StateBuilding || m.phase != phaseStruct {
		return Assignment{}, false
	}
	m.phase = phasePending
	if a, ok := t.assignLocked(m, eligible); ok {
		return a, true
	}
	t.pending = append(t.pending, child)
	return Assignment{}, false
}

// assignLocked grants the lowest-ID eligible seed with a free outbound
// stream to the pending child.
func (t *Tree) assignLocked(m *Member, eligible func(member, node int) bool) (Assignment, bool) {
	for _, d := range t.members {
		if !t.canDonateLocked(d) {
			continue
		}
		if eligible != nil && !eligible(d.ID, d.Node) {
			continue
		}
		m.Parent = d.ID
		m.phase = phaseWeights
		d.kids = append(d.kids, m.ID)
		d.inflight++
		t.streams[d.Node]++
		return Assignment{Child: m.ID, Donor: d.ID, DonorNode: d.Node}, true
	}
	return Assignment{}, false
}

// canDonateLocked reports whether d is a live seed with a free stream on its
// node. Recipients never donate.
func (t *Tree) canDonateLocked(d *Member) bool {
	return d.Seed && d.State == StateWarm && t.streams[d.Node] < t.cfg.Bandwidth
}

// PumpPending hands freed donor streams to parked children in FIFO order and
// returns the assignments for the engine to schedule.
func (t *Tree) PumpPending(eligible func(member, node int) bool) []Assignment {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Assignment
	rest := t.pending[:0]
	for _, id := range t.pending {
		m := t.members[id]
		if m.State != StateBuilding || m.phase != phasePending {
			continue // lost or diverted while parked
		}
		if a, ok := t.assignLocked(m, eligible); ok {
			out = append(out, a)
		} else {
			rest = append(rest, id)
		}
	}
	t.pending = rest
	return out
}

// ToFallback diverts a building child to a from-scratch load: a wave-cancel
// (the assigned donation would have blown the watchdog deadline) or a
// no-donor fallback (open circuit breaker, seeds exhausted). Any held
// donation stream is released and the donor link is cut. waveCancel
// distinguishes the watchdog path in the tallies.
func (t *Tree) ToFallback(child int, waveCancel bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[child]
	if m.State != StateBuilding {
		return
	}
	t.detachLocked(m)
	m.phase = phaseLoad
	t.stats.LoadFallbacks++
	if waveCancel {
		t.stats.WaveCancels++
	}
}

// detachLocked severs a building child from its donor, releasing the donor's
// outbound stream.
func (t *Tree) detachLocked(m *Member) {
	if m.phase != phaseWeights || m.Parent < 0 {
		m.Parent = -1
		return
	}
	d := t.members[m.Parent]
	d.inflight--
	t.streams[d.Node]--
	for i, k := range d.kids {
		if k == m.ID {
			d.kids = append(d.kids[:i], d.kids[i+1:]...)
			break
		}
	}
	m.Parent = -1
}

// corruptLedger runs the edge-balance verification over a completed
// replica's rewiring ledger. Its seed's ledger is empty and replication
// rewires nothing, so a clean replica balances; a corrupt stream claims an
// edge removal that never happened.
func corruptLedger(corrupt bool) bool {
	removes := 0
	if corrupt {
		removes = 1
	}
	return metaop.CheckEdgeBalance(0, removes, 0) != nil
}

// Complete finishes a child's weights stream or fallback load. corrupt is
// the engine's faults.Corrupt draw for this completion: a corrupt donation
// fails the edge-balance check, so the member is quarantined instead of
// warmed and NeedRecipients grows to rebuild it.
func (t *Tree) Complete(child int, now time.Duration, corrupt bool) CompleteResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	var res CompleteResult
	m := t.members[child]
	if m.State != StateBuilding || (m.phase != phaseWeights && m.phase != phaseLoad) {
		return res
	}
	res.ViaDonation = m.phase == phaseWeights
	if res.ViaDonation {
		d := t.members[m.Parent]
		d.inflight--
		t.streams[d.Node]--
	}
	m.phase = phaseNone
	res.Completed = true
	t.stats.Recipients++
	if res.ViaDonation && corruptLedger(corrupt) {
		t.stats.CorruptOutputs++
		t.stats.Quarantined++
		m.State = StateQuarantined
		res.Quarantined = true
	} else {
		m.State = StateWarm
	}
	t.checkDoneLocked(now)
	res.TreeDone = t.done
	return res
}

// checkDoneLocked marks the tree done once the target is reached with
// nothing in flight.
func (t *Tree) checkDoneLocked(now time.Duration) {
	if t.done {
		return
	}
	completed := 0
	for _, m := range t.members {
		if m.Seed {
			continue
		}
		switch m.State {
		case StateWarm:
			completed++
		case StateBuilding:
			return
		}
	}
	if completed < t.want {
		return
	}
	t.done = true
	t.stats.TreesCompleted++
	t.stats.TimeToWarm = now - t.start
}

// DonorLost handles a seed dying mid-donation (injected=true for the
// FanoutCrash fault, false for losses to the container lifecycle). Each
// orphaned in-flight child is re-assigned to the lowest-ID eligible seed
// with a free stream, or parked when none qualifies. The engine reschedules
// assigned orphans (the stream restarts from the new donor) and drops the
// old completion events.
func (t *Tree) DonorLost(donor int, eligible func(member, node int) bool, injected bool) []Reparent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.donorLostLocked(donor, eligible, injected)
}

func (t *Tree) donorLostLocked(donor int, eligible func(member, node int) bool, injected bool) []Reparent {
	d := t.members[donor]
	if d.State != StateWarm {
		return nil
	}
	d.State = StateDead
	t.streams[d.Node] -= d.inflight
	d.inflight = 0
	if injected {
		t.stats.DonorCrashes++
	}
	var orphans []*Member
	for _, k := range d.kids {
		m := t.members[k]
		if m.State == StateBuilding && m.phase == phaseWeights && m.Parent == donor {
			orphans = append(orphans, m)
		}
	}
	d.kids = nil
	var out []Reparent
	for _, m := range orphans {
		m.Parent = -1
		m.phase = phasePending
		t.stats.Reparents++
		if a, ok := t.assignLocked(m, eligible); ok {
			out = append(out, Reparent{Child: m.ID, NewDonor: a.Donor, NewDonorNode: a.DonorNode})
		} else {
			// Deferred adoption: parked until PumpPending finds a donor.
			t.pending = append(t.pending, m.ID)
			out = append(out, Reparent{Child: m.ID, NewDonor: -1})
		}
	}
	return out
}

// Stranded returns the children parked for a donor when the tree can no
// longer produce one: no seed passes the aliveness check (its container may
// be dead, evicted or repurposed). Such children can only finish through a
// from-scratch fallback load; the engine diverts them so the tree keeps
// making progress instead of stalling on a donor that will never exist.
func (t *Tree) Stranded(alive func(member, node int) bool) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.members {
		if m.Seed && m.State == StateWarm && (alive == nil || alive(m.ID, m.Node)) {
			return nil
		}
	}
	var out []int
	for _, id := range t.pending {
		if m := t.members[id]; m.State == StateBuilding && m.phase == phasePending {
			out = append(out, id)
		}
	}
	return out
}

// RecipientLost handles a building child losing its container or node before
// completion. Whatever it held is released; NeedRecipients grows so the
// engine rebuilds a replacement.
func (t *Tree) RecipientLost(child int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[child]
	if m.State != StateBuilding {
		return
	}
	t.detachLocked(m)
	m.phase = phaseNone
	m.State = StateDead
}

// MemberLost handles a completed member (seed or idle replica) lost to the
// container lifecycle without an active donation: eviction, repurposing or a
// node outage. With active donations DonorLost applies instead; MemberLost
// forwards in that case.
func (t *Tree) MemberLost(member int, eligible func(member, node int) bool) []Reparent {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[member]
	// The inflight check and the state transition share one critical section:
	// a concurrent attach between a dropped-and-retaken lock could leave an
	// in-flight child streaming from a member already marked dead.
	if m.inflight > 0 {
		return t.donorLostLocked(member, eligible, false)
	}
	if m.State == StateWarm {
		m.State = StateDead
	}
	return nil
}

// Streams returns the node's active outbound donation streams (for tests).
func (t *Tree) Streams(node int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.streams[node]
}
