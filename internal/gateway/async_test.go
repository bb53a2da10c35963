package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simulate"
	"repro/internal/zoo"
)

// TestAsyncPlanningStress hammers the asynchronous offline-planning pipeline
// under -race: concurrent registrations (including duplicate attempts),
// registration/unregistration churn, invocations whose transform path races
// the pipeline through the inline GetOrPlan fallback, and stats readers. On
// quiesce, every ordered pair among the surviving models must be planned (no
// lost pairs) and the cache must hold exactly one computed plan per key (the
// singleflight never let two goroutines plan the same pair).
func TestAsyncPlanningStress(t *testing.T) {
	clock := &fakeClock{}
	g := New(Config{
		Cluster:     simulate.Config{Nodes: 2, ContainersPerNode: 2},
		Now:         clock.now,
		PlanWorkers: 4,
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	img := zoo.Imgclsmob()
	fixed := []*model.Graph{
		img.MustGet("resnet18-imagenet"),
		img.MustGet("resnet34-imagenet"),
		img.MustGet("vgg11-imagenet"),
		img.MustGet("mobilenet-w1-imagenet"),
	}
	churn := img.MustGet("squeezenet-v1.0-cifar10")

	const (
		workers = 8
		iters   = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	// failed closes on the first worker error so invokers waiting on a model
	// that will now never register stop instead of hanging the test.
	failed := make(chan struct{})
	var failOnce sync.Once
	do := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := f(i); err != nil {
					errs <- err
					failOnce.Do(func() { close(failed) })
					return
				}
			}
		}()
	}

	// registered[m] closes when fixed[m]'s first registration succeeds. A
	// duplicate rejection does not count: it can return before the winning
	// registration has added the function to the serving path.
	registered := make([]chan struct{}, len(fixed))
	for m := range registered {
		registered[m] = make(chan struct{})
	}
	for w := 0; w < 2; w++ {
		do(func(i int) error { // racing (mostly duplicate) registrations
			m := i % len(fixed)
			err := g.RegisterModel(fixed[m])
			switch {
			case err == nil: // fixed models never unregister: one success each
				close(registered[m])
			case !errors.Is(err, ErrDuplicateModel):
				return err
			}
			return nil
		})
	}
	do(func(int) error { // churn: register/unregister races the pipeline
		if err := g.RegisterModel(churn); err != nil && !errors.Is(err, ErrDuplicateModel) {
			return err
		}
		if err := g.UnregisterModel(churn.Name); err != nil && !errors.Is(err, ErrUnknownModel) {
			return err
		}
		return nil
	})
	for w := 0; w < 2; w++ {
		do(func(i int) error { // invokers: the transform path plans inline
			// when it beats the pipeline, through the same cache
			m := i % len(fixed)
			select {
			case <-registered[m]: // invoking earlier would 404
			case <-failed:
				return nil
			}
			raw, _ := json.Marshal(map[string]string{"model": fixed[m].Name})
			resp, err := http.Post(srv.URL+"/api/invoke", "application/json", bytes.NewReader(raw))
			if err != nil {
				return err
			}
			resp.Body.Close()
			// 404 is possible only for the churn model, which we never invoke.
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				return fmt.Errorf("invoke status %d", resp.StatusCode)
			}
			return nil
		})
	}
	do(func(int) error { // stats readers race the planning counters
		resp, err := http.Get(srv.URL + "/api/stats")
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	})
	do(func(int) error { // clock keeps moving under everything
		clock.advance(100 * time.Millisecond)
		return nil
	})

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	g.PlanningQuiesce()
	if !g.PlanningReady() {
		t.Error("pipeline not ready after quiesce")
	}

	// No lost pairs: whichever of a pair registered later snapshots the
	// earlier one as existing, so every ordered pair among the fixed models
	// must have been planned into the cache.
	env := g.online.Env()
	for _, src := range fixed {
		for _, dst := range fixed {
			if src == dst {
				continue
			}
			if _, ok := env.Plans.Get(src, dst); !ok {
				t.Errorf("lost pair: %s→%s not planned after quiesce", src.Name, dst.Name)
			}
		}
	}

	// No duplicate planning: the cache is unbounded here, so every computed
	// pair landed on a distinct key — singleflight collapsed every race
	// between registrations and inline request-path fallbacks.
	ct := env.Plans.Counters()
	if ct.Planned+ct.Costed != ct.Size || ct.Misses != ct.Size {
		t.Errorf("planned+costed %d (misses %d) for %d cached keys: duplicate planning slipped past singleflight",
			ct.Planned+ct.Costed, ct.Misses, ct.Size)
	}
	if ct.Evictions != 0 {
		t.Errorf("unbounded cache evicted %d plans", ct.Evictions)
	}

	// Pipeline bookkeeping is consistent after the dust settles.
	st := g.Precomputer().Stats()
	if st.Pending != 0 || st.Enqueued != st.Completed {
		t.Errorf("pipeline counters enqueued=%d completed=%d pending=%d after quiesce",
			st.Enqueued, st.Completed, st.Pending)
	}
}
