package fanout

import (
	"testing"
	"time"
)

// drive runs a tree to completion with a tiny synchronous scheduler: every
// eligible recipient starts immediately, structure loads finish instantly,
// and donations complete in assignment order, one per tick. corrupt marks
// member IDs whose completion draws the corrupt-output fault. onTick lets a
// test inject donor kills mid-wave; it runs before the tick's completion.
func drive(t *testing.T, tr *Tree, nodes []int, corrupt map[int]bool, onTick func(tick int)) time.Duration {
	t.Helper()
	now := time.Duration(0)
	var active []int // children streaming or loading, in schedule order
	schedule := func(as []Assignment) {
		for _, a := range as {
			active = append(active, a.Child)
		}
	}
	for tick := 0; tick < 10_000; tick++ {
		for {
			child, _, ok := tr.StartRecipient(nodes)
			if !ok {
				break
			}
			if a, ok := tr.StructDone(child, nil); ok {
				schedule([]Assignment{a})
			}
		}
		schedule(tr.PumpPending(nil))
		if tr.Done() {
			return now
		}
		if onTick != nil {
			onTick(tick)
			// A kill may have orphaned children; rebuild the active list
			// from live building members (copying the engine's event-drop).
			active = active[:0]
			for _, m := range tr.Members() {
				if m.State == StateBuilding && (m.phase == phaseWeights || m.phase == phaseLoad) {
					active = append(active, m.ID)
				}
			}
		}
		if len(active) == 0 {
			t.Fatalf("tree stalled at tick %d: %+v", tick, tr.Stats())
		}
		child := active[0]
		active = active[1:]
		now += time.Second
		res := tr.Complete(child, now, corrupt[child])
		if res.TreeDone {
			return now
		}
		schedule(tr.PumpPending(nil))
	}
	t.Fatalf("tree did not complete: %+v", tr.Stats())
	return now
}

func TestZeroFaultTreeCompletes(t *testing.T) {
	tr := New(Config{Bandwidth: 2, MaxRecipients: 16}, "fn", 16, 0)
	tr.AddSeed(0)
	nodes := []int{0, 1, 2, 3}
	drive(t, tr, nodes, nil, nil)

	st := tr.Stats()
	if st.Recipients != 16 || st.TreesCompleted != 1 {
		t.Fatalf("stats = %+v, want 16 recipients, 1 completed tree", st)
	}
	if st.Reparents != 0 || st.Quarantined != 0 || st.LoadFallbacks != 0 || st.WaveCancels != 0 {
		t.Fatalf("zero-fault run recorded resilience events: %+v", st)
	}
	warm, perNode := 0, map[int]int{}
	for _, m := range tr.Members() {
		if m.Seed {
			continue
		}
		if m.State != StateWarm {
			t.Fatalf("member %d ended %s", m.ID, m.State)
		}
		warm++
		perNode[m.Node]++
	}
	if warm != 16 {
		t.Fatalf("warm recipients = %d, want 16", warm)
	}
	for n, c := range perNode {
		if c != 4 {
			t.Fatalf("placement should spread evenly, node %d hosts %d", n, c)
		}
	}
	for _, n := range nodes {
		if tr.Streams(n) != 0 {
			t.Fatalf("node %d leaked %d donation streams", n, tr.Streams(n))
		}
	}
}

// TestOnlySeedsDonate pins the one-wave schedule: a completed replica serves
// but never donates, so every recipient streams from the seed even while
// replicas on other nodes sit warm with free streams.
func TestOnlySeedsDonate(t *testing.T) {
	tr := New(Config{Bandwidth: 2, MaxRecipients: 8}, "fn", 8, 0)
	seed := tr.AddSeed(0)
	drive(t, tr, []int{0, 1}, nil, nil)
	for _, m := range tr.Members() {
		if m.Seed {
			continue
		}
		if m.Parent != seed {
			t.Fatalf("member %d streamed from %d, want seed %d", m.ID, m.Parent, seed)
		}
	}
}

// TestStrandedOnlyWhenNoSeedLives pins the stranded rule: parked children
// wait while a seed lives, and once every seed is dead they are diverted even
// though warm replicas remain — replicas never donate.
func TestStrandedOnlyWhenNoSeedLives(t *testing.T) {
	tr := New(Config{Bandwidth: 1, MaxRecipients: 3}, "fn", 3, 0)
	seed := tr.AddSeed(0)
	first, _, _ := tr.StartRecipient([]int{1})
	if _, ok := tr.StructDone(first, nil); !ok {
		t.Fatal("first child found no donor")
	}
	tr.Complete(first, time.Second, false)
	second, _, _ := tr.StartRecipient([]int{1})
	third, _, _ := tr.StartRecipient([]int{1})
	if _, ok := tr.StructDone(second, nil); !ok {
		t.Fatal("second child found no donor")
	}
	if _, ok := tr.StructDone(third, nil); ok {
		t.Fatal("third child was handed a donor beyond the seed's bandwidth")
	}
	if got := tr.Stranded(nil); got != nil {
		t.Fatalf("stranded %v while the seed lives", got)
	}
	rep := tr.DonorLost(seed, nil, true)
	if len(rep) != 1 || rep[0].Child != second || rep[0].NewDonor != -1 {
		t.Fatalf("the orphan should park with no seed left, got %+v", rep)
	}
	if got := tr.Stranded(nil); len(got) != 2 || got[0] != third || got[1] != second {
		t.Fatalf("stranded %v with every seed dead, want [%d %d]", got, third, second)
	}
}

// TestDonorCrashReparentsOntoOtherSeed kills a seed mid-wave: its orphans
// move to the other seed while it has a free stream and park otherwise, and
// the tree still completes.
func TestDonorCrashReparentsOntoOtherSeed(t *testing.T) {
	tr := New(Config{Bandwidth: 2, MaxRecipients: 3}, "fn", 3, 0)
	dead := tr.AddSeed(0)
	other := tr.AddSeed(1)
	killed := false
	drive(t, tr, []int{0, 1, 2}, nil, func(tick int) {
		if killed {
			return
		}
		killed = true
		rep := tr.DonorLost(dead, nil, true)
		if len(rep) != 2 {
			t.Fatalf("killed seed had %d orphans, want 2: %+v", len(rep), rep)
		}
		if rep[0].NewDonor != other || rep[1].NewDonor != -1 {
			t.Fatalf("orphans = %+v, want the first on seed %d and the second parked", rep, other)
		}
	})
	st := tr.Stats()
	if st.DonorCrashes != 1 || st.Reparents != 2 {
		t.Fatalf("stats = %+v, want 1 donor crash with 2 re-parents", st)
	}
	if st.TreesCompleted != 1 {
		t.Fatalf("tree should still complete after the crash: %+v", st)
	}
	for _, m := range tr.Members() {
		if !m.Seed && m.Parent != other {
			t.Fatalf("member %d finished on %d, want the surviving seed %d", m.ID, m.Parent, other)
		}
	}
}

// TestCorruptOutputQuarantinesOnlyThatMember corrupts the first donation: the
// edge-balance check quarantines that replica at completion, a replacement
// is rebuilt, and no other member is touched.
func TestCorruptOutputQuarantinesOnlyThatMember(t *testing.T) {
	tr := New(Config{Bandwidth: 2, MaxRecipients: 12}, "fn", 12, 0)
	tr.AddSeed(0)
	drive(t, tr, []int{0, 1, 2}, map[int]bool{1: true}, nil)

	st := tr.Stats()
	if st.CorruptOutputs != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt output, 1 quarantined", st)
	}
	if st.Recipients != 13 || st.TreesCompleted != 1 {
		t.Fatalf("stats = %+v, want 13 recipients (one rebuilt) and a completed tree", st)
	}
	warm := 0
	for _, m := range tr.Members() {
		switch {
		case m.Seed:
		case m.ID == 1:
			if m.State != StateQuarantined {
				t.Fatalf("corrupt member ended %s, want quarantined", m.State)
			}
		case m.State == StateWarm:
			warm++
		default:
			t.Fatalf("member %d ended %s; only the corrupt one may be cut", m.ID, m.State)
		}
	}
	if warm != 12 {
		t.Fatalf("clean warm replicas = %d, want 12", warm)
	}
}

func TestToFallbackCutsLineageAndCounts(t *testing.T) {
	tr := New(Config{Bandwidth: 1, MaxRecipients: 2}, "fn", 2, 0)
	tr.AddSeed(0)
	child, _, ok := tr.StartRecipient([]int{0})
	if !ok {
		t.Fatal("recipient refused")
	}
	a, ok := tr.StructDone(child, nil)
	if !ok || a.Donor != 0 {
		t.Fatalf("expected seed donation, got %+v ok=%v", a, ok)
	}
	if tr.Streams(0) != 1 {
		t.Fatalf("streams = %d, want 1", tr.Streams(0))
	}
	tr.ToFallback(child, true) // watchdog-deadline cancel
	if tr.Streams(0) != 0 {
		t.Fatal("fallback must release the donation stream")
	}
	// A from-scratch load streams nothing, so a corrupt draw cannot touch it.
	res := tr.Complete(child, time.Second, true)
	if !res.Completed || res.Quarantined || res.ViaDonation {
		t.Fatalf("fallback completion = %+v, want completed, clean, not a donation", res)
	}
	st := tr.Stats()
	if st.WaveCancels != 1 || st.LoadFallbacks != 1 || st.CorruptOutputs != 0 {
		t.Fatalf("stats = %+v, want 1 wave cancel + 1 load fallback, no corruption", st)
	}
	m := tr.Members()[child]
	if m.State != StateWarm || m.Parent != -1 {
		t.Fatalf("fallback child = %+v, want warm with no parent", m)
	}
}

// TestStaleCompleteAfterReparentRefused pins the parked-orphan hole: when a
// donor dies and no healthy member can adopt the orphan, the completion
// scheduled for the dead donation must not be able to promote the still-parked
// child — Complete reports Completed=false and changes nothing.
func TestStaleCompleteAfterReparentRefused(t *testing.T) {
	tr := New(Config{Bandwidth: 1, MaxRecipients: 2}, "fn", 2, 0)
	seed := tr.AddSeed(0)
	child, _, ok := tr.StartRecipient([]int{0, 1})
	if !ok {
		t.Fatal("recipient refused")
	}
	if a, ok := tr.StructDone(child, nil); !ok || a.Donor != seed {
		t.Fatalf("expected seed donation, got %+v ok=%v", a, ok)
	}
	rep := tr.DonorLost(seed, nil, true)
	if len(rep) != 1 || rep[0].Child != child || rep[0].NewDonor != -1 {
		t.Fatalf("orphan should park with no adopter, got %+v", rep)
	}
	// The completion event scheduled for the dead donation fires anyway (the
	// engine drops it by generation; the tree must also refuse it).
	res := tr.Complete(child, time.Second, false)
	if res.Completed || res.TreeDone || res.Quarantined {
		t.Fatalf("stale completion was accepted: %+v", res)
	}
	if m := tr.Members()[child]; m.State != StateBuilding || m.phase != phasePending {
		t.Fatalf("parked orphan mutated by stale completion: state=%s phase=%d", m.State, m.phase)
	}
	if st := tr.Stats(); st.Recipients != 0 {
		t.Fatalf("stale completion tallied a recipient: %+v", st)
	}
}

func TestTwoRunsAreIdentical(t *testing.T) {
	run := func() ([]Member, time.Duration) {
		tr := New(Config{Bandwidth: 2, MaxRecipients: 16}, "fn", 16, 0)
		tr.AddSeed(0)
		tr.AddSeed(1)
		at := drive(t, tr, []int{0, 1, 2, 3}, map[int]bool{4: true}, nil)
		return tr.Members(), at
	}
	m1, t1 := run()
	m2, t2 := run()
	if t1 != t2 || len(m1) != len(m2) {
		t.Fatalf("runs diverged: %v/%d vs %v/%d members", t1, len(m1), t2, len(m2))
	}
	for i := range m1 {
		a, b := m1[i], m2[i]
		if a.ID != b.ID || a.Node != b.Node || a.Parent != b.Parent || a.State != b.State {
			t.Fatalf("member %d diverged: %+v vs %+v", i, a, b)
		}
	}
}
