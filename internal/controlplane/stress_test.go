package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/simulate"
	"repro/internal/zoo"
)

// TestProxyStress runs real gateways behind proxies concurrently; run it
// under -race. Three gateway.New members sit behind NewProxy on their own
// httptest servers. Invokers enter at every member while registrations
// arrive through rotating entries, some of them for models not yet
// registered. On quiesce:
//
//   - each invoke was recorded only on its function's ring owner, once per
//     200 the client saw;
//   - every member holds the same catalog;
//   - every proxy reports mirror_errors 0 on /api/ring;
//   - on every member, Planned+Costed == Misses: each pair a lookup missed
//     was computed exactly once, and no steps were built behind a hit.
func TestProxyStress(t *testing.T) {
	const (
		seed   = 7
		vnodes = 64
	)
	ids := []string{"gw-0", "gw-1", "gw-2"}
	img := zoo.Imgclsmob()
	var models []*model.Graph
	for _, name := range []string{
		"resnet18-imagenet", "resnet34-imagenet", "vgg11-imagenet",
		"mobilenet-w1-imagenet", "squeezenet-v1.0-cifar10", "resnet50-imagenet",
	} {
		models = append(models, img.MustGet(name))
	}
	preset, concurrent := models[:3], models[3:]

	// clock is the members' shared virtual clock; each invoker advances it.
	var clock atomic.Int64
	now := func() time.Duration { return time.Duration(clock.Load()) }

	gws := make(map[string]*gateway.Gateway, len(ids))
	proxies := make(map[string]*Proxy, len(ids))
	urls := make(map[string]string, len(ids))
	peers := make([]Peer, 0, len(ids))
	for i, id := range ids {
		gws[id] = gateway.New(gateway.Config{
			Cluster:     simulate.Config{Nodes: 2, ContainersPerNode: 2, Seed: int64(i + 1)},
			Now:         now,
			PlanWorkers: 2,
		})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			proxies[id].ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		urls[id] = srv.URL
		peers = append(peers, Peer{ID: id, URL: u})
	}
	for _, id := range ids {
		p, err := NewProxy(id, peers, seed, vnodes, gws[id].Handler())
		if err != nil {
			t.Fatal(err)
		}
		proxies[id] = p
	}
	rg := ring.New(seed, vnodes)
	for _, id := range ids {
		rg.Add(id)
	}

	register := func(entry string, m *model.Graph) (int, error) {
		raw, err := json.Marshal(m)
		if err != nil {
			return 0, err
		}
		resp, err := http.Post(urls[entry]+"/api/models", "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	for i, m := range preset {
		if code, err := register(ids[i%len(ids)], m); err != nil || code != http.StatusCreated {
			t.Fatalf("registering %s: status %d, %v", m.Name, code, err)
		}
	}

	const (
		invokersPerEntry = 2
		iters            = 30
	)
	var (
		wg     sync.WaitGroup
		served sync.Map // model name → *atomic.Int64 of 200 responses
	)
	errs := make(chan error, len(ids)*invokersPerEntry+2)
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
		do(func(i int) error { // registrations, many of them duplicates, through rotating entries
			entry := ids[(w+i)%len(ids)]
			m := concurrent[(w+i)%len(concurrent)]
			code, err := register(entry, m)
			if err != nil {
				return err
			}
			if code != http.StatusCreated && code != http.StatusConflict {
				return fmt.Errorf("register %s at %s: status %d", m.Name, entry, code)
			}
			return nil
		})
	}
	for e, entry := range ids {
		for w := 0; w < invokersPerEntry; w++ {
			k := e*invokersPerEntry + w
			do(func(i int) error { // invokes at every entry, forwarded to owners
				m := models[(k+i)%len(models)]
				clock.Add(int64(40 * time.Second))
				resp, err := http.Post(urls[entry]+"/api/invoke", "application/json",
					strings.NewReader(fmt.Sprintf(`{"model":%q}`, m.Name)))
				if err != nil {
					return err
				}
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					n, _ := served.LoadOrStore(m.Name, new(atomic.Int64))
					n.(*atomic.Int64).Add(1)
				case resp.StatusCode == http.StatusNotFound && !isPreset(preset, m):
					// Not yet registered at its owner.
				default:
					return fmt.Errorf("invoke %s at %s: status %d", m.Name, entry, resp.StatusCode)
				}
				return nil
			})
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, id := range ids {
		gws[id].PlanningQuiesce()
	}

	// Owner-only recording: every function's records sit on its ring owner,
	// one per 200 the clients saw.
	for _, id := range ids {
		var perFn map[string]*metrics.Collector
		gws[id].Online().ReadCollector(func(col *metrics.Collector) { perFn = col.PerFunction() })
		for fn, col := range perFn {
			owner, _ := rg.Owner(fn)
			if owner != id {
				t.Errorf("%s recorded %d invokes of %s, owned by %s", id, col.Len(), fn, owner)
			}
		}
	}
	for _, m := range models {
		owner, _ := rg.Owner(m.Name)
		var recorded int
		gws[owner].Online().ReadCollector(func(col *metrics.Collector) {
			if c := col.PerFunction()[m.Name]; c != nil {
				recorded = c.Len()
			}
		})
		var ok int64
		if n, found := served.Load(m.Name); found {
			ok = n.(*atomic.Int64).Load()
		}
		if int64(recorded) != ok {
			t.Errorf("owner %s recorded %d invokes of %s, clients saw %d served", owner, recorded, m.Name, ok)
		}
	}

	// One catalog everywhere: every registration reached every member.
	var want []string
	for _, m := range models {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	for _, id := range ids {
		var got struct {
			Models []string `json:"models"`
		}
		getJSON(t, urls[id]+"/api/models", &got)
		if strings.Join(got.Models, ",") != strings.Join(want, ",") {
			t.Errorf("%s catalog %v, want %v", id, got.Models, want)
		}
	}

	forwards := int64(0)
	for _, id := range ids {
		forwards += proxies[id].forwards.Load()
	}
	if forwards == 0 {
		t.Error("no invoke was forwarded: every entry owned what it was sent")
	}
	for _, id := range ids {
		var st struct {
			MirrorErrors int64 `json:"mirror_errors"`
		}
		getJSON(t, urls[id]+"/api/ring", &st)
		if st.MirrorErrors != 0 {
			t.Errorf("%s reports %d mirror errors", id, st.MirrorErrors)
		}
		if ct := gws[id].Env().Plans.Counters(); ct.Planned+ct.Costed != ct.Misses {
			t.Errorf("%s planned+costed %d for %d misses: a pair was computed twice or steps were built behind a hit",
				id, ct.Planned+ct.Costed, ct.Misses)
		}
	}
}

func isPreset(preset []*model.Graph, m *model.Graph) bool {
	for _, p := range preset {
		if p == m {
			return true
		}
	}
	return false
}

func getJSON(t *testing.T, u string, v any) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
}
