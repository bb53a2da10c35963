package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/gateway"
)

// TestClusterStress extends the async-pipeline stress pattern across
// gateways: 4 in-process members under concurrent RegisterModel broadcasts,
// request forwarding from racing invokers, /api/plan step builds on rotating
// members, stats readers, and a mid-test Drain of one member. Run under
// -race. On quiesce:
//
//   - no lost plans: every ordered catalog pair is in its current ring
//     owner's cache;
//   - no duplicate planning: no member computed a pair it holds twice, or
//     built a pair's steps twice, and the survivors computed no more pairs
//     than the catalog has — the registration-time ownership filter plus
//     the drain handoff meant exactly one member ever ran the planner for
//     each pair;
//   - every /api/plan answer is the serial plan's.
func TestClusterStress(t *testing.T) {
	clock := &fakeClock{}
	cl := testCluster(t, 4, clock, func(c *Config) { c.PlanWorkers = 4 })
	models := testModels(t, 8)

	// Seed half the catalog up front so invokers always have targets; the
	// other half registers concurrently with the load.
	preset := models[:4]
	concurrent := models[4:]
	for _, m := range preset {
		if err := cl.RegisterModel(m); err != nil {
			t.Fatal(err)
		}
	}

	const (
		workers = 6
		iters   = 30
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+iters)
	do := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := f(i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	for w := 0; w < 2; w++ {
		do(func(i int) error { // racing (mostly duplicate) registrations
			if err := cl.RegisterModel(concurrent[i%len(concurrent)]); err != nil &&
				!errors.Is(err, gateway.ErrDuplicateModel) {
				return err
			}
			return nil
		})
	}
	for w := 0; w < 3; w++ {
		entryW := w
		do(func(i int) error { // invokers entering at rotating members force forwarding
			entries := cl.Members()
			entry := entries[(entryW+i)%len(entries)]
			m := preset[i%len(preset)]
			_, _, err := cl.Invoke(entry, m.Name, clock.advance(40*time.Second))
			if err != nil && !errors.Is(err, gateway.ErrUnknownModel) {
				return fmt.Errorf("invoke %s at %s: %w", m.Name, entry, err)
			}
			return nil
		})
	}
	for w := 0; w < 2; w++ {
		entryW := w
		do(func(i int) error { // /api/plan builds steps for cost-only pairs
			entries := cl.Members()
			gw, ok := cl.Member(entries[(entryW+i)%len(entries)])
			if !ok {
				return nil // drained since the listing
			}
			src, dst := preset[i%len(preset)], preset[(i+1+entryW)%len(preset)]
			rec := httptest.NewRecorder()
			// Serving holds the topology read lock, as Invoke does, so a
			// pull's ring read cannot race a drain's ring mutation.
			cl.topo.RLock()
			gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/plan?src="+src.Name+"&dst="+dst.Name, nil))
			cl.topo.RUnlock()
			if rec.Code != http.StatusOK {
				return fmt.Errorf("/api/plan %s→%s: status %d", src.Name, dst.Name, rec.Code)
			}
			var got struct {
				Steps int     `json:"steps"`
				EstMS float64 `json:"est_ms"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				return err
			}
			want := gw.Env().Planner.Plan(src, dst)
			if got.Steps != len(want.Steps) || got.EstMS != float64(want.EstCost)/float64(time.Millisecond) {
				return fmt.Errorf("/api/plan %s→%s: %+v, serial plan has %d steps at %v", src.Name, dst.Name, got, len(want.Steps), want.EstCost)
			}
			return nil
		})
	}
	do(func(int) error { // stats readers race counters and topology
		st := cl.Stats()
		if st.RingMembers == 0 {
			return errors.New("ring emptied mid-test")
		}
		return nil
	})

	// Mid-test drain: let the load build, then take gw-2 out while
	// registrations, forwards, and pulls are all in flight.
	drained := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		drained <- cl.Drain("gw-2")
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("mid-test drain failed: %v", err)
	}
	cl.PlanningQuiesce()

	// Survivors only, and the catalog is complete everywhere that is alive.
	members := cl.Members()
	if len(members) != 3 {
		t.Fatalf("members after drain: %v", members)
	}

	// No lost plans: each ordered pair sits in its ring owner's cache.
	for _, src := range models {
		for _, dst := range models {
			if src == dst {
				continue
			}
			owner, ok := cl.Owner(pairKey(src.Name, dst.Name))
			if !ok {
				t.Fatalf("no owner for pair %s→%s", src.Name, dst.Name)
			}
			gw, ok := cl.Member(owner)
			if !ok {
				t.Fatalf("owner %s not a member", owner)
			}
			if _, ok := gw.Env().Plans.Get(src, dst); !ok {
				t.Errorf("lost plan: %s→%s missing from owner %s after drain", src.Name, dst.Name, owner)
			}
		}
	}

	// No duplicate planning: survivors' computed pairs plus the pairs that
	// departed with gw-2 (handed off, not re-planned) must equal the pair
	// count exactly. Since the drained member's tally is gone, assert the
	// survivors' computed + remote-pull + handoff copies cover every pair
	// without any survivor planning a pair twice: computed ≤ pairs and every
	// pair is present (checked above), so equality of computed+copied is
	// implied; the sharp check is that no single cache computed more keys
	// than it holds. A pair is computed on its first miss, by a full plan or
	// a cost pass (Misses−Remote); steps built later for a cost-only pair
	// also count as Planned, at most once per key.
	totalFirst := 0
	for _, row := range cl.Stats().Members {
		first := row.Cache.Misses - row.Cache.Remote
		totalFirst += first
		if first > row.Cache.Size || row.Cache.Planned > row.Cache.Size {
			t.Errorf("%s computed %d pairs and built steps %d times but holds %d keys: a pair was planned twice",
				row.Name, first, row.Cache.Planned, row.Cache.Size)
		}
	}
	pairs := len(models) * (len(models) - 1)
	if totalFirst > pairs {
		t.Errorf("survivors computed %d pairs for a %d-pair catalog: duplicate planning across gateways",
			totalFirst, pairs)
	}
}
