package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/repository"
	"repro/internal/simulate"
	"repro/internal/zoo"
)

// fakeClock provides a controllable now(), safe for concurrent advance.
type fakeClock struct{ t atomic.Int64 }

func (f *fakeClock) now() time.Duration      { return time.Duration(f.t.Load()) }
func (f *fakeClock) advance(d time.Duration) { f.t.Add(int64(d)) }

func newTestGateway(t *testing.T) (*Gateway, *httptest.Server, *fakeClock) {
	t.Helper()
	clock := &fakeClock{}
	g := New(Config{
		Cluster: simulate.Config{Nodes: 1, ContainersPerNode: 2},
		Now:     clock.now,
	})
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv, clock
}

func post(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestHealthz(t *testing.T) {
	_, srv, _ := newTestGateway(t)
	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, body)
	}
}

func TestRegisterAndListModels(t *testing.T) {
	g, srv, _ := newTestGateway(t)
	m := zoo.Imgclsmob().MustGet("resnet18-imagenet")
	resp, body := post(t, srv.URL+"/api/models", m)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d %v", resp.StatusCode, body)
	}
	if body["name"] != "resnet18-imagenet" {
		t.Errorf("register response: %v", body)
	}
	// Duplicate rejected.
	resp, _ = post(t, srv.URL+"/api/models", m)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate register = %d", resp.StatusCode)
	}
	// Listed.
	_, body = get(t, srv.URL+"/api/models")
	models, _ := body["models"].([]any)
	if len(models) != 1 {
		t.Fatalf("models = %v", body)
	}
	// Fetchable by name (round-trips through JSON).
	resp, _ = get(t, srv.URL+"/api/models/resnet18-imagenet")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fetch by name = %d", resp.StatusCode)
	}
	resp, _ = get(t, srv.URL+"/api/models/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing model fetch = %d", resp.StatusCode)
	}
	_ = g
}

func TestRegisterRejectsInvalid(t *testing.T) {
	_, srv, _ := newTestGateway(t)
	resp, err := http.Post(srv.URL+"/api/models", "application/json", bytes.NewReader([]byte("{{{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed register = %d", resp.StatusCode)
	}
}

func TestInvokeLifecycle(t *testing.T) {
	g, srv, clock := newTestGateway(t)
	img := zoo.Imgclsmob()
	if err := g.RegisterModel(img.MustGet("resnet18-imagenet")); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterModel(img.MustGet("resnet34-imagenet")); err != nil {
		t.Fatal(err)
	}

	// First call: cold.
	resp, body := post(t, srv.URL+"/api/invoke", map[string]string{"model": "resnet18-imagenet"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke = %d %v", resp.StatusCode, body)
	}
	if body["start_kind"] != "cold" {
		t.Errorf("first invoke kind = %v", body["start_kind"])
	}
	// Second call soon after: warm.
	clock.advance(30 * time.Second)
	_, body = post(t, srv.URL+"/api/invoke", map[string]string{"model": "resnet18-imagenet"})
	if body["start_kind"] != "warm" {
		t.Errorf("second invoke kind = %v", body["start_kind"])
	}
	// Different model once resnet18's container is idle past the threshold
	// and its owner is overdue (observed inter-arrival 30 s): transform.
	clock.advance(2 * time.Minute)
	_, body = post(t, srv.URL+"/api/invoke", map[string]string{"model": "resnet34-imagenet"})
	if body["start_kind"] != "transform" {
		t.Errorf("third invoke kind = %v", body["start_kind"])
	}
	clock.advance(9 * time.Minute) // near keep-alive: containers repurposable
	_, body = post(t, srv.URL+"/api/invoke", map[string]string{"model": "resnet18-imagenet"})
	if body["start_kind"] == "" {
		t.Error("fourth invoke missing kind")
	}

	// Stats reflect the calls.
	_, stats := get(t, srv.URL+"/api/stats")
	if stats["requests"].(float64) != 4 {
		t.Errorf("stats = %v", stats)
	}
	// Unknown model 404s.
	resp, _ = post(t, srv.URL+"/api/invoke", map[string]string{"model": "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown invoke = %d", resp.StatusCode)
	}
	// Missing model field 400s.
	resp, _ = post(t, srv.URL+"/api/invoke", map[string]string{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty invoke = %d", resp.StatusCode)
	}
}

func TestPlanEndpoint(t *testing.T) {
	g, srv, _ := newTestGateway(t)
	img := zoo.Imgclsmob()
	_ = g.RegisterModel(img.MustGet("resnet18-imagenet"))
	_ = g.RegisterModel(img.MustGet("resnet34-imagenet"))

	resp, body := get(t, srv.URL+"/api/plan?src=resnet18-imagenet&dst=resnet34-imagenet")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan = %d %v", resp.StatusCode, body)
	}
	if body["load_from_scratch"] != false {
		t.Errorf("resnet18→resnet34 safeguarded? %v", body)
	}
	if body["est_ms"].(float64) <= 0 || body["scratch_ms"].(float64) <= 0 {
		t.Errorf("plan costs missing: %v", body)
	}
	resp, _ = get(t, srv.URL+"/api/plan?src=resnet18-imagenet&dst=missing")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing plan = %d", resp.StatusCode)
	}
}

// TestPlanCachePrewarm verifies Module 3's planning-strategy caching: after
// registrations quiesce, pairs between registered models are cached with
// their costs, and no steps have been built.
func TestPlanCachePrewarm(t *testing.T) {
	g, _, _ := newTestGateway(t)
	img := zoo.Imgclsmob()
	a := img.MustGet("resnet18-imagenet")
	b := img.MustGet("resnet34-imagenet")
	_ = g.RegisterModel(a)
	_ = g.RegisterModel(b)
	g.PlanningQuiesce()
	env := g.online.Env()
	if _, ok := env.Plans.Get(a, b); !ok {
		t.Error("a→b plan not precomputed on registration")
	}
	if _, ok := env.Plans.Get(b, a); !ok {
		t.Error("b→a plan not precomputed on registration")
	}
	if ct := env.Plans.Counters(); ct.Costed != 2 || ct.Planned != 0 {
		t.Errorf("counters %+v: want both pairs costed and no steps built", ct)
	}
}

// TestStatsPlanTimeCount: /api/stats times every planning operation, so
// plan_time.count equals the cache's planned plus costed, the steps /api/plan
// builds included.
func TestStatsPlanTimeCount(t *testing.T) {
	g, srv, _ := newTestGateway(t)
	img := zoo.Imgclsmob()
	for _, n := range []string{"resnet18-imagenet", "resnet34-imagenet", "vgg11-imagenet"} {
		if err := g.RegisterModel(img.MustGet(n)); err != nil {
			t.Fatal(err)
		}
	}
	g.PlanningQuiesce()
	if resp, body := get(t, srv.URL+"/api/plan?src=resnet18-imagenet&dst=resnet34-imagenet"); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan = %d %v", resp.StatusCode, body)
	}
	_, body := get(t, srv.URL+"/api/stats")
	planning := body["planning"].(map[string]any)
	cache := planning["cache"].(map[string]any)
	count := planning["plan_time"].(map[string]any)["count"].(float64)
	planned, costed := cache["planned"].(float64), cache["costed"].(float64)
	if planned != 1 || costed != 6 {
		t.Errorf("cache planned %v, costed %v; want the /api/plan steps and 6 cost passes", planned, costed)
	}
	if count != planned+costed {
		t.Errorf("plan_time.count = %v, want planned+costed = %v", count, planned+costed)
	}
}

func TestMethodGuards(t *testing.T) {
	g, srv, _ := newTestGateway(t)
	_ = g
	for _, c := range []struct{ method, path string }{
		{http.MethodDelete, "/api/models"},
		{http.MethodPost, "/api/plan"},
		{http.MethodPost, "/api/stats"},
		{http.MethodGet, "/api/invoke"},
		{http.MethodPost, "/api/models/x"},
	} {
		req, _ := http.NewRequest(c.method, srv.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", c.method, c.path, resp.StatusCode)
		}
	}
}

func TestUnregisterModel(t *testing.T) {
	g, srv, _ := newTestGateway(t)
	img := zoo.Imgclsmob()
	_ = g.RegisterModel(img.MustGet("resnet18-imagenet"))

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/models/resnet18-imagenet", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
	// Invoking the removed model now fails.
	resp, _ = post(t, srv.URL+"/api/invoke", map[string]string{"model": "resnet18-imagenet"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("invoke after delete = %d", resp.StatusCode)
	}
	// Double delete 404s.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/api/models/resnet18-imagenet", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double delete = %d", resp.StatusCode)
	}
}

func TestClusterEndpoint(t *testing.T) {
	g, srv, clock := newTestGateway(t)
	img := zoo.Imgclsmob()
	_ = g.RegisterModel(img.MustGet("resnet18-imagenet"))
	post(t, srv.URL+"/api/invoke", map[string]string{"model": "resnet18-imagenet"})
	clock.advance(time.Minute)

	_, body := get(t, srv.URL+"/api/cluster")
	nodes, _ := body["nodes"].([]any)
	if len(nodes) != 1 {
		t.Fatalf("cluster nodes = %v", body)
	}
	node := nodes[0].(map[string]any)
	containers, _ := node["containers"].([]any)
	if len(containers) != 1 {
		t.Fatalf("containers = %v", node)
	}
	c := containers[0].(map[string]any)
	if c["function"] != "resnet18-imagenet" {
		t.Errorf("container = %v", c)
	}
	if c["idle_sec"].(float64) <= 0 {
		t.Errorf("container should be idle: %v", c)
	}
}

// TestConcurrentInvokes exercises the gateway's locking under parallel load.
func TestConcurrentInvokes(t *testing.T) {
	g, srv, _ := newTestGateway(t)
	img := zoo.Imgclsmob()
	_ = g.RegisterModel(img.MustGet("resnet18-imagenet"))
	_ = g.RegisterModel(img.MustGet("resnet34-imagenet"))

	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := "resnet18-imagenet"
			if i%2 == 1 {
				name = "resnet34-imagenet"
			}
			body, _ := json.Marshal(map[string]string{"model": name})
			resp, err := http.Post(srv.URL+"/api/invoke", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	_, stats := get(t, srv.URL+"/api/stats")
	if int(stats["requests"].(float64)) != n {
		t.Errorf("stats requests = %v, want %d", stats["requests"], n)
	}
}

// TestGatewayPersistence: with a repository configured, registrations
// survive a gateway restart.
func TestGatewayPersistence(t *testing.T) {
	dir := t.TempDir()
	store, err := repository.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{}
	g1 := New(Config{
		Cluster:    simulate.Config{Nodes: 1, ContainersPerNode: 2},
		Now:        clock.now,
		Repository: store,
	})
	img := zoo.Imgclsmob()
	if err := g1.RegisterModel(img.MustGet("resnet18-imagenet")); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new gateway over a fresh store at the same directory.
	store2, err := repository.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	g2 := New(Config{
		Cluster:    simulate.Config{Nodes: 1, ContainersPerNode: 2},
		Now:        clock.now,
		Repository: store2,
	})
	srv := httptest.NewServer(g2.Handler())
	defer srv.Close()
	resp, body := post(t, srv.URL+"/api/invoke", map[string]string{"model": "resnet18-imagenet"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke after restart = %d %v", resp.StatusCode, body)
	}
	// Unregister also clears the disk.
	if err := g2.UnregisterModel("resnet18-imagenet"); err != nil {
		t.Fatal(err)
	}
	if store2.Len() != 0 {
		t.Error("unregister left the model on disk")
	}
}

// TestRegisterInvalidModel: a model that decodes but fails validation is the
// client's bad request (400), not a conflict.
func TestRegisterInvalidModel(t *testing.T) {
	_, srv, _ := newTestGateway(t)
	resp, body := post(t, srv.URL+"/api/models", map[string]any{"name": "empty"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid model register = %d %v, want 400", resp.StatusCode, body)
	}
}

func TestLoadShedding(t *testing.T) {
	clock := &fakeClock{}
	g := New(Config{
		Cluster:     simulate.Config{Nodes: 1, ContainersPerNode: 2},
		Now:         clock.now,
		MaxInflight: 1,
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// Occupy the only admission slot; the next request must be shed.
	g.inflight <- struct{}{}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if g.shed.Load() != 1 {
		t.Errorf("shed counter = %d", g.shed.Load())
	}
	<-g.inflight // release: service resumes
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release request = %d", resp.StatusCode)
	}
	// The shed count is visible on /api/stats.
	_, stats := get(t, srv.URL+"/api/stats")
	if stats["shed"].(float64) != 1 {
		t.Errorf("stats shed = %v", stats["shed"])
	}
}

func TestPanicRecovery(t *testing.T) {
	g, _, _ := newTestGateway(t)
	h := g.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler = %d, want 500", rec.Code)
	}
	if g.panics.Load() != 1 {
		t.Errorf("panics counter = %d", g.panics.Load())
	}
}

func TestRequestTimeoutApplied(t *testing.T) {
	clock := &fakeClock{}
	g := New(Config{
		Cluster:        simulate.Config{Nodes: 1, ContainersPerNode: 2},
		Now:            clock.now,
		RequestTimeout: 50 * time.Millisecond,
	})
	// The timeout wraps the whole stack; a handler that outlives it gets a
	// 503 from http.TimeoutHandler. Exercise it with a deliberately slow
	// inner handler spliced into the same middleware shape.
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	h := http.TimeoutHandler(g.recoverPanics(slow), g.timeout, `{"error":"request timed out"}`)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("timed-out request = %d, want 503", resp.StatusCode)
	}
	// The real handler still answers fast requests under the timeout.
	srv2 := httptest.NewServer(g.Handler())
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fast request under timeout = %d", resp.StatusCode)
	}
}

// TestInvokeDroppedIs503: a request that exhausts its crash-retry budget maps
// to a retryable 503, not a 404.
func TestInvokeDroppedIs503(t *testing.T) {
	clock := &fakeClock{}
	g := New(Config{
		Cluster: simulate.Config{
			Nodes: 1, ContainersPerNode: 2,
			Faults:     faults.Rates{Crash: 1},
			MaxRetries: -1,
		},
		Now: clock.now,
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	if err := g.RegisterModel(zoo.Imgclsmob().MustGet("resnet18-imagenet")); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, srv.URL+"/api/invoke", map[string]string{"model": "resnet18-imagenet"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dropped invoke = %d %v, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("dropped invoke missing Retry-After")
	}
	_, stats := get(t, srv.URL+"/api/stats")
	faultMap := stats["faults"].(map[string]any)
	if faultMap["dropped"].(float64) != 1 || faultMap["crashes"].(float64) != 1 {
		t.Errorf("stats faults = %v", faultMap)
	}
}

// TestGatewayStress hammers every mutating and reading endpoint from parallel
// goroutines; run under -race this is the regression test for the
// snapshot/stats/registration data races.
func TestGatewayStress(t *testing.T) {
	clock := &fakeClock{}
	g := New(Config{
		Cluster:        simulate.Config{Nodes: 2, ContainersPerNode: 2},
		Now:            clock.now,
		MaxInflight:    64,
		RequestTimeout: 5 * time.Second,
	})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	img := zoo.Imgclsmob()
	if err := g.RegisterModel(img.MustGet("resnet18-imagenet")); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterModel(img.MustGet("resnet34-imagenet")); err != nil {
		t.Fatal(err)
	}
	churn := img.MustGet("mobilenet-w1-imagenet")

	const (
		workers = 8
		iters   = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
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
	for w := 0; w < workers/2; w++ {
		do(func(i int) error { // invokers
			name := "resnet18-imagenet"
			if i%2 == 1 {
				name = "resnet34-imagenet"
			}
			raw, _ := json.Marshal(map[string]string{"model": name})
			resp, err := http.Post(srv.URL+"/api/invoke", "application/json", bytes.NewReader(raw))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
				return fmt.Errorf("invoke status %d", resp.StatusCode)
			}
			return nil
		})
	}
	do(func(int) error { // cluster readers race the invokers
		resp, err := http.Get(srv.URL + "/api/cluster")
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	})
	do(func(int) error { // stats readers race the collector
		resp, err := http.Get(srv.URL + "/api/stats")
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	})
	do(func(int) error { // registration churn races both
		if err := g.RegisterModel(churn); err != nil && !errors.Is(err, ErrDuplicateModel) {
			return err
		}
		if err := g.UnregisterModel(churn.Name); err != nil && !errors.Is(err, ErrUnknownModel) {
			return err
		}
		return nil
	})
	do(func(int) error { // clock keeps moving under everything
		clock.advance(250 * time.Millisecond)
		return nil
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestModelsListSorted is the regression test for the map-iteration-order
// leak optimus-lint's maprange checker found in the models listing: the
// response must come back sorted no matter what order models registered in.
func TestModelsListSorted(t *testing.T) {
	g, srv, _ := newTestGateway(t)
	img := zoo.Imgclsmob()
	for _, name := range []string{
		"vgg16-imagenet",
		"resnet10-cifar10",
		"bn-vgg13-cifar100",
		"resnet18-imagenet",
		"resnet14-cifar100",
		"vgg11-imagenet",
	} {
		if err := g.RegisterModel(img.MustGet(name)); err != nil {
			t.Fatal(err)
		}
	}
	_, body := get(t, srv.URL+"/api/models")
	raw, _ := body["models"].([]any)
	if len(raw) != 6 {
		t.Fatalf("models = %v", body)
	}
	names := make([]string, len(raw))
	for i, v := range raw {
		names[i], _ = v.(string)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("GET /api/models not sorted: %v", names)
	}
}
