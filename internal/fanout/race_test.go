package fanout

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWaveSchedulingStress hammers one tree from many goroutines —
// schedulers starting and completing children, a killer downing seeds and
// replicas mid-wave, and readers snapshotting stats — to let the race
// detector check the tree's locking. Scheduling decisions under concurrency
// are not deterministic (the engine serializes for that); this test only
// asserts the bookkeeping invariants survive.
func TestConcurrentWaveSchedulingStress(t *testing.T) {
	tr := New(Config{Bandwidth: 2, MaxRecipients: 64}, "fn", 64, 0)
	for n := 0; n < 4; n++ {
		tr.AddSeed(n)
	}
	nodes := []int{0, 1, 2, 3}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			now := time.Duration(seed)
			for i := 0; i < 400; i++ {
				child, _, ok := tr.StartRecipient(nodes)
				if ok {
					if a, assigned := tr.StructDone(child, nil); assigned {
						now += time.Millisecond
						tr.Complete(a.Child, now, rng.Intn(20) == 0)
					} else if rng.Intn(4) == 0 {
						tr.ToFallback(child, false)
						now += time.Millisecond
						tr.Complete(child, now, false)
					}
				}
				for _, a := range tr.PumpPending(nil) {
					now += time.Millisecond
					tr.Complete(a.Child, now, false)
				}
			}
		}(int64(g) + 1)
	}
	// Killer: down random members mid-wave; the tree must re-parent or park
	// their orphans without corrupting its accounting.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 300; i++ {
			ms := tr.Members()
			if len(ms) == 0 {
				continue
			}
			id := rng.Intn(len(ms))
			if ms[id].Seed && rng.Intn(2) == 0 {
				continue // keep some seeds alive so the tree can make progress
			}
			if rng.Intn(2) == 0 {
				tr.DonorLost(id, nil, true)
			} else {
				tr.MemberLost(id, nil)
			}
		}
	}()
	// Reader: concurrent snapshots must never tear.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = tr.Stats()
			_ = tr.Done()
			for _, n := range nodes {
				if s := tr.Streams(n); s < 0 {
					t.Errorf("negative stream count %d on node %d", s, n)
					return
				}
			}
		}
	}()
	wg.Wait()

	st := tr.Stats()
	if st.Recipients < 0 || st.Quarantined < 0 || st.Reparents < 0 {
		t.Fatalf("accounting went negative: %+v", st)
	}
	for _, n := range nodes {
		if s := tr.Streams(n); s < 0 || s > tr.cfg.Bandwidth {
			t.Fatalf("node %d ended with %d streams (bandwidth %d)", n, s, tr.cfg.Bandwidth)
		}
	}
}
