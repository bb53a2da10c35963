package simulate

// Whitebox regression tests for the fan-out event-generation protocol: the
// paths that park an orphan (donor crashed, no healthy adopter free) must
// invalidate the completion event scheduled for the dead donation, and
// fanoutDone must refuse a completion the tree did not actually apply.

import (
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/workload"
	"repro/internal/zoo"
)

// fanoutParkedOrphan builds a simulator mid-crash: childA streams from seed0,
// childB saturates seed1's single outbound stream, then seed0 crashes. seed1
// is healthy but has no free stream, so childA's orphan parks with no adopter
// — the exact shape whose stale completion used to fire.
func fanoutParkedOrphan(t *testing.T) (*Simulator, *fanoutRun, int, int) {
	t.Helper()
	g, err := zoo.Imgclsmob().Get("resnet18-imagenet")
	if err != nil {
		t.Fatal(err)
	}
	fn := &Function{Name: "resnet18-imagenet", Model: g}
	// Policy stays nil: the fan-out paths under test never consult it.
	s := New(Config{
		Nodes: 2, ContainersPerNode: 3,
		Fanout: fanout.Config{Enabled: true, Bandwidth: 1, Threshold: 1, MaxRecipients: 2},
	}, []*Function{fn})
	fr := s.rt(fn)
	run := &fanoutRun{
		fr:   fr,
		ctrs: make(map[int]*Container),
		home: make(map[int]*Node),
		gens: make(map[int]int),
	}
	b := s.env.Profile.ModelLoad(fn.Model)
	run.structDur = s.env.Profile.SandboxInit + b.Structure
	run.weightsDur = b.Weights
	run.fallbackDur = b.Deserialize + b.Weights
	run.tree = fanout.New(s.cfg.Fanout, fn.Name, 2, 0)
	s.fanouts = map[string]*fanoutRun{fn.Name: run}

	n0, n1 := s.nodes[0], s.nodes[1]
	addSeed := func(n *Node) int {
		c := n.newContainer(fn, s.env.GrantFor(fn), 0)
		c.LastDone = 1 // completed a request: seedable
		id := run.tree.AddSeed(n.ID)
		run.ctrs[id] = c
		run.home[id] = n
		return id
	}
	seed0 := addSeed(n0)
	addSeed(n1)

	startChild := func(n *Node) int {
		child, nodeID, ok := run.tree.StartRecipient([]int{n.ID})
		if !ok || nodeID != n.ID {
			t.Fatalf("recipient refused on node %d", n.ID)
		}
		s.startFanoutRecipient(run, child, n)
		a, ok := run.tree.StructDone(child, s.fanoutEligible(run))
		if !ok {
			t.Fatalf("child %d found no donor", child)
		}
		s.scheduleDonation(run, a)
		return child
	}
	childA := startChild(n0) // streams from seed0
	startChild(n1)           // streams from seed1, saturating its bandwidth

	staleGen := run.gens[childA]
	s.clock = run.weightsDur / 2
	s.fanoutCrash(event{at: s.clock, node: n0, c: run.ctrs[seed0],
		fo: run, member: seed0, gen: run.gens[seed0]})
	if st := run.tree.Members()[childA].State; st != fanout.StateBuilding {
		t.Fatalf("orphan should stay building (parked), got %s", st)
	}
	return s, run, childA, staleGen
}

// assertHeld fails when the orphan's container was promoted out of its build
// hold — the corruption the generation protocol exists to prevent.
func assertHeld(t *testing.T, s *Simulator, run *fanoutRun, child int) {
	t.Helper()
	c := run.ctrs[child]
	if c.fanoutFresh || c.fanoutBuilt {
		t.Fatal("parked orphan's container was marked as a completed replica")
	}
	if !c.Busy(s.clock + run.weightsDur) {
		t.Fatal("parked orphan's build hold was released")
	}
	if st := run.tree.Members()[child].State; st != fanout.StateBuilding {
		t.Fatalf("parked orphan left building state: %s", st)
	}
}

func TestFanoutCrashInvalidatesParkedOrphanEvent(t *testing.T) {
	s, run, childA, staleGen := fanoutParkedOrphan(t)
	if run.gens[childA] == staleGen {
		t.Fatal("donor crash left the parked orphan's generation unbumped")
	}
	// Deliver the completion event scheduled for the dead donation anyway: it
	// must die at the generation check without touching the container.
	s.clock = run.weightsDur
	s.fanoutDone(event{at: s.clock, node: run.home[childA], c: run.ctrs[childA],
		fo: run, member: childA, gen: staleGen})
	assertHeld(t, s, run, childA)
}

func TestFanoutDoneRefusesUnappliedCompletion(t *testing.T) {
	s, run, childA, _ := fanoutParkedOrphan(t)
	// Defense in depth behind the generation check: even an event carrying the
	// current generation must not promote a child the tree refuses to
	// complete (it is parked, not streaming).
	s.clock = run.weightsDur
	s.fanoutDone(event{at: s.clock, node: run.home[childA], c: run.ctrs[childA],
		fo: run, member: childA, gen: run.gens[childA]})
	assertHeld(t, s, run, childA)
}

// TestFanoutCorruptOutputQuarantinesReplica runs the burst under rate-0.5
// corrupt donations: every corrupt replica is quarantined at completion and
// nothing else is, its container is destroyed without ever being released
// into service, replacements bring the fan-out to its target, and no request
// is lost.
func TestFanoutCorruptOutputQuarantinesReplica(t *testing.T) {
	g, err := zoo.Imgclsmob().Get("resnet18-imagenet")
	if err != nil {
		t.Fatal(err)
	}
	fn := &Function{Name: "resnet18-imagenet", Model: g}
	reqs := []workload.Request{{Function: fn.Name, At: 0}}
	for i := 0; i < 40; i++ {
		reqs = append(reqs, workload.Request{Function: fn.Name, At: 5*time.Minute + time.Duration(i)*time.Millisecond})
	}
	tr := &workload.Trace{Duration: 2 * time.Hour, Requests: reqs}
	s := New(Config{
		Policy: warmColdPolicy{}, Nodes: 4, ContainersPerNode: 2, Seed: 7,
		Placement: map[string][]int{fn.Name: {0}},
		Fanout:    fanout.Config{Enabled: true},
		Faults:    faults.Rates{Corrupt: 0.5},
	}, []*Function{fn})
	col, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	fs := col.Fanout
	if fs.CorruptOutputs == 0 {
		t.Fatalf("rate-0.5 corrupt outputs never fired: %+v", fs)
	}
	if fs.Quarantined != fs.CorruptOutputs || fs.TreesCompleted != 1 {
		t.Fatalf("want each corrupt replica quarantined and a completed fan-out: %+v", fs)
	}
	if col.Len() != tr.Len() {
		t.Fatalf("corruption must not lose requests: served %d of %d", col.Len(), tr.Len())
	}
	quarantined := 0
	for _, run := range s.fanoutLog {
		for _, m := range run.tree.Members() {
			if m.State != fanout.StateQuarantined {
				continue
			}
			quarantined++
			c := run.ctrs[m.ID]
			if !c.dead || c.fanoutBuilt || c.LastDone != c.Created {
				t.Fatalf("quarantined member %d: dead=%v built=%v served=%v, want a destroyed container that never served",
					m.ID, c.dead, c.fanoutBuilt, c.LastDone != c.Created)
			}
		}
	}
	if quarantined != fs.Quarantined {
		t.Fatalf("%d quarantined members, stats say %d", quarantined, fs.Quarantined)
	}
}

// TestFanoutCapacity pins the placement rule over hand-built nodes: free
// slots plus idle containers of other functions, bounded by memory, and
// nothing at all on an over-committed memory-aware node.
func TestFanoutCapacity(t *testing.T) {
	fn, other := &Function{Name: "f"}, &Function{Name: "g"}
	busy := func(f *Function, mb int) *Container { return &Container{Fn: f, MemMB: mb, BusyUntil: time.Hour} }
	idle := func(f *Function, mb int) *Container { return &Container{Fn: f, MemMB: mb} }
	cases := []struct {
		name     string
		node     Node
		memMB    int
		capacity int
	}{
		{"empty slot node", Node{Capacity: 2}, 0, 2},
		{"busy slots", Node{Capacity: 2, Containers: []*Container{busy(fn, 0), busy(other, 0)}}, 0, 0},
		{"foreign idle reclaimable", Node{Capacity: 2, Containers: []*Container{busy(fn, 0), idle(other, 0)}}, 0, 1},
		{"own idle kept", Node{Capacity: 2, Containers: []*Container{idle(fn, 0), busy(other, 0)}}, 0, 0},
		{"memory bound", Node{Capacity: 4, MemoryMB: 1000}, 300, 3},
		{"memory with reclaim", Node{Capacity: 4, MemoryMB: 1000, Containers: []*Container{idle(other, 600), busy(fn, 300)}}, 300, 2},
		{"memory node, zero grant", Node{Capacity: 3, MemoryMB: 1000, Containers: []*Container{busy(other, 300)}}, 0, 2},
		{"over-committed, zero grant", Node{Capacity: 4, MemoryMB: 500, Containers: []*Container{busy(other, 300), busy(other, 300)}}, 0, 0},
		{"over-committed, grant", Node{Capacity: 4, MemoryMB: 500, Containers: []*Container{busy(other, 300), busy(other, 300)}}, 200, 0},
	}
	for _, tc := range cases {
		if got := fanoutCapacity(&tc.node, 0, tc.memMB, fn); got != tc.capacity {
			t.Errorf("%s: capacity %d, want %d", tc.name, got, tc.capacity)
		}
	}
}
