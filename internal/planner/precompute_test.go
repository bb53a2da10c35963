package planner

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/model"
	"repro/internal/zoo"
)

// propZoo builds n seeded random graphs for the parallel-vs-serial property
// tests.
func propZoo(n, maxOps int) []*model.Graph {
	out := make([]*model.Graph, n)
	for i := range out {
		out[i] = randomGraph(fmt.Sprintf("m%d", i), int64(100+i), maxOps)
	}
	return out
}

// tinyZoo builds graphs small enough for the brute-force oracle: every
// ordered pair's cost matrix (src ops + dst ops) stays within
// bruteForceLimit.
func tinyZoo() []*model.Graph {
	return []*model.Graph{
		chain("t0", convOp("c1", 3, 8, 8), reluOp("r1", 8)),
		chain("t1", convOp("c1", 5, 8, 8), reluOp("r1", 8), convOp("c2", 3, 8, 8)),
		chain("t2", convOp("c1", 1, 8, 16), reluOp("r1", 16)),
		chain("t3", reluOp("r1", 8), convOp("c1", 3, 8, 8), reluOp("r2", 8)),
	}
}

// TestParallelPrecomputeMatchesSerial is the determinism property test: the
// parallel pipeline must hold every ordered pair, cost-only, with the Cost a
// serial plan reports, and the steps later built from each entry must be
// byte-identical (JSON covers step order, costs and the safeguard decision)
// to direct serial planning, for every planning algorithm.
func TestParallelPrecomputeMatchesSerial(t *testing.T) {
	cases := []struct {
		algo   Algorithm
		models []*model.Graph
	}{
		{AlgoGroup, propZoo(8, 10)},
		{AlgoHungarian, propZoo(8, 10)},
		{AlgoBrute, tinyZoo()}, // brute needs tiny matrices
	}
	for _, tc := range cases {
		t.Run(tc.algo.String(), func(t *testing.T) {
			pl := New(exact(), tc.algo)
			parallel := NewCache()
			NewPrecomputer(pl, parallel, 8).PrecomputeAll(tc.models)

			for i, src := range tc.models {
				for j, dst := range tc.models {
					if i == j {
						continue
					}
					k, ok := parallel.Get(src, dst)
					if !ok {
						t.Fatalf("%s→%s missing from parallel cache", src.Name, dst.Name)
					}
					if k.e.plan != nil {
						t.Fatalf("%s→%s: precompute built steps", src.Name, dst.Name)
					}
					if k.Cost != pl.Cost(src, dst) {
						t.Errorf("%s→%s: precomputed cost %+v, serial cost %+v", src.Name, dst.Name, k.Cost, pl.Cost(src, dst))
					}
					want, got := pl.Plan(src, dst), k.Plan()
					jw, errW := json.Marshal(want)
					jg, errG := json.Marshal(got)
					if errW != nil || errG != nil {
						t.Fatalf("marshal: %v / %v", errW, errG)
					}
					if string(jw) != string(jg) {
						t.Errorf("%s→%s: parallel plan differs from serial\nserial:   %s\nparallel: %s",
							src.Name, dst.Name, jw, jg)
					}
				}
			}
		})
	}
}

// TestGetOrPlanSingleflight: a burst of concurrent GetOrPlan calls for one
// pair computes the plan exactly once; everyone gets the same plan object and
// every call is accounted as the one miss that planned or a cache hit (the
// waiters among the hits also count as deduped).
func TestGetOrPlanSingleflight(t *testing.T) {
	img := zoo.Imgclsmob()
	src := img.MustGet("resnet50-imagenet")
	dst := img.MustGet("resnet101-imagenet")
	c := NewCache()
	pl := New(exact(), AlgoGroup)

	const callers = 16
	plans := make([]any, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plans[i] = c.GetOrPlan(pl, src, dst)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < callers; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a different plan object", i)
		}
	}
	ct := c.Counters()
	if ct.Planned != 1 {
		t.Errorf("planned %d times, want exactly 1 (singleflight)", ct.Planned)
	}
	if ct.Planned+ct.Hits != callers || ct.Deduped > ct.Hits {
		t.Errorf("planned %d + hits %d != %d callers, or deduped %d exceeds the hits",
			ct.Planned, ct.Hits, callers, ct.Deduped)
	}
	if n := built(c); n != 1 {
		t.Errorf("%d pairs have steps, want 1", n)
	}
}

// TestCacheLRUEviction: a bounded cache evicts the least recently used plan,
// counts the eviction, and keeps freshly used entries.
func TestCacheLRUEviction(t *testing.T) {
	base := chain("base", convOp("c1", 3, 8, 8))
	dsts := []*model.Graph{
		chain("d0", reluOp("r", 8)),
		chain("d1", reluOp("r", 16)),
		chain("d2", reluOp("r", 32)),
	}
	c := NewCacheBounded(2)
	pl := New(exact(), AlgoGroup)

	p0 := c.GetOrPlan(pl, base, dsts[0])
	_ = c.GetOrPlan(pl, base, dsts[1])
	// Freshen (base, d0) so (base, d1) becomes the LRU entry.
	if p := c.GetOrPlan(pl, base, dsts[0]); p != p0 || c.Counters().Hits != 1 {
		t.Fatal("freshening lookup missed")
	}
	_ = c.GetOrPlan(pl, base, dsts[2]) // exceeds the bound → evicts (base, d1)

	if n := built(c); n != 2 {
		t.Fatalf("%d pairs have steps, want 2 (bounded)", n)
	}
	ct := c.Counters()
	if ct.Evictions != 1 || ct.Size != 2 || ct.Limit != 2 {
		t.Errorf("counters = %+v, want 1 eviction at size 2/2", ct)
	}
	if _, ok := c.Get(base, dsts[0]); !ok {
		t.Error("recently used pair was evicted")
	}
	if _, ok := c.Get(base, dsts[1]); ok {
		t.Error("LRU pair survived past the bound")
	}
	if _, ok := c.Get(base, dsts[2]); !ok {
		t.Error("newest pair missing")
	}
}

// TestPrecomputerCounters: EnqueueAll skips the self pair, Quiesce drains the
// backlog, the pipeline costs each unique pair exactly once (no duplicate
// work) and builds no steps, and re-enqueueing already-costed pairs does not
// cost them again.
func TestPrecomputerCounters(t *testing.T) {
	models := propZoo(5, 8)
	pl := New(exact(), AlgoGroup)
	c := NewCache()
	p := NewPrecomputer(pl, c, 4)

	p.EnqueueAll(models[0], models) // includes models[0] itself → skipped
	p.Quiesce()
	if !p.Ready() {
		t.Fatal("pipeline not ready after Quiesce")
	}

	want := 2 * (len(models) - 1)
	st := p.Stats()
	if st.Enqueued != want || st.Completed != want || st.Pending != 0 {
		t.Errorf("enqueued/completed/pending = %d/%d/%d, want %d/%d/0",
			st.Enqueued, st.Completed, st.Pending, want, want)
	}
	ct := c.Counters()
	if got := ct.Planned + ct.Costed; got != want || got != ct.Misses || got != ct.Size {
		t.Errorf("planned+costed %d (misses %d) into a cache of %d, want %d each (no duplicates)",
			got, ct.Misses, ct.Size, want)
	}
	if ct.Planned != 0 || built(c) != 0 {
		t.Errorf("precompute built steps: counters %+v", ct)
	}
	if st := p.Stats(); st.Planned != want {
		t.Errorf("pipeline stats count %d planning operations, want %d", st.Planned, want)
	}

	// Re-enqueueing the same pairs is a cheap cache probe, not a replan.
	p.EnqueueAll(models[0], models)
	p.Quiesce()
	if ct := c.Counters(); ct.Planned+ct.Costed != want {
		t.Errorf("re-enqueue replanned: planned+costed = %d, want still %d", ct.Planned+ct.Costed, want)
	}
}

// warmupModels is the warm-up catalog the precompute timings use: eight
// ImageNet CNNs and two BERT variants, 90 ordered pairs.
func warmupModels() []*model.Graph {
	img, bert := zoo.Imgclsmob(), zoo.BERTZoo()
	var out []*model.Graph
	for _, n := range []string{
		"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "resnet101-imagenet",
		"vgg11-imagenet", "vgg16-imagenet", "vgg19-imagenet", "densenet121-imagenet",
	} {
		out = append(out, img.MustGet(n))
	}
	return append(out, bert.MustGet("bert-tiny"), bert.MustGet("bert-mini"))
}

// TestParallelPrecomputeNotSlower: warming the catalog on the full worker
// pool costs every pair once and, where there is parallel hardware (≥4
// cores), is not slower than one worker. On fewer cores the pool
// degenerates to serial plus overhead, so only the counts are checked.
func TestParallelPrecomputeNotSlower(t *testing.T) {
	models := warmupModels()
	pairs := len(models) * (len(models) - 1)
	pl := New(cost.Exact(cost.CPU()), AlgoGroup)
	warm := func(workers int) (time.Duration, Counters) {
		c := NewCache()
		t0 := time.Now()
		NewPrecomputer(pl, c, workers).PrecomputeAll(models)
		return time.Since(t0), c.Counters()
	}
	serial, _ := warm(1)
	parallel, ct := warm(runtime.GOMAXPROCS(0))
	if ct.Costed != pairs || ct.Planned != 0 {
		t.Errorf("parallel warm-up counters %+v, want %d pairs costed and no steps built", ct, pairs)
	}
	if runtime.NumCPU() >= 4 && parallel > serial {
		t.Errorf("parallel precompute slower than serial on %d cores: %v vs %v (speedup %.2f)",
			runtime.NumCPU(), parallel, serial, float64(serial)/float64(parallel))
	}
}

func benchPrecompute(b *testing.B, workers int) {
	models := warmupModels()
	pl := New(cost.Exact(cost.CPU()), AlgoGroup)
	pairs := len(models) * (len(models) - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPrecomputer(pl, NewCache(), workers).PrecomputeAll(models)
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}

func BenchmarkPrecomputeSerial(b *testing.B)   { benchPrecompute(b, 1) }
func BenchmarkPrecomputeParallel(b *testing.B) { benchPrecompute(b, 0) }
