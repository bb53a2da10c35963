package planner

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/metaop"
	"repro/internal/model"
	"repro/internal/zoo"
)

// planAllocs is the allocation count of one warm-index group plan: the
// mapping's SrcToDst, matched and Added slices, then the plan, its Steps
// and the inverse mapping. Per-model work (topological sort, groups, key
// sorts, edge lists, hashes, scratch cost) happens once per graph in the
// index and must not reappear here.
const planAllocs = 6

// TestPlanAllocsAndSlack pins what one plan costs once both graphs are
// indexed, and that plans carry no spare capacity: cached plans live as long
// as the cache, so append slack would be held for the life of a server.
func TestPlanAllocsAndSlack(t *testing.T) {
	img := zoo.Imgclsmob()
	src, dst := img.MustGet("resnet50-imagenet"), img.MustGet("resnet101-imagenet")
	pl := New(exact(), AlgoGroup)
	p := pl.Plan(src, dst) // warm the index
	if len(p.Steps) == 0 || len(p.Steps) != cap(p.Steps) {
		t.Errorf("plan has %d steps with capacity %d, want len == cap > 0", len(p.Steps), cap(p.Steps))
	}
	if got := testing.AllocsPerRun(100, func() { pl.Plan(src, dst) }); got > planAllocs {
		t.Errorf("warm-index Plan allocates %.0f times, want at most %d", got, planAllocs)
	}
	// A self-plan has no steps, and keeps Steps nil so it encodes as JSON
	// null in checkpoints and control-plane copies, as it always has.
	for _, algo := range []Algorithm{AlgoGroup, AlgoHungarian} {
		if self := New(exact(), algo).Plan(src, src); self.Steps != nil {
			t.Errorf("%v self-plan has non-nil Steps (len %d, cap %d)", algo, len(self.Steps), cap(self.Steps))
		}
	}
}

// TestSharedColdIndex runs eight goroutines planning overlapping pairs
// through one planner whose index starts empty. Every plan must equal the
// serial planner's, and every goroutine must have read the one index entry
// the planner kept for each graph: a concurrent first build may be wasted,
// but it must never replace an entry another goroutine already used.
func TestSharedColdIndex(t *testing.T) {
	img := zoo.Imgclsmob()
	var models []*model.Graph
	for _, n := range img.Names()[:6] {
		models = append(models, img.MustGet(n))
	}
	models = append(models, zoo.BERTZoo().MustGet("bert-tiny"))

	serial := New(exact(), AlgoGroup)
	want := make(map[[2]int]*metaop.Plan)
	for i, src := range models {
		for j, dst := range models {
			want[[2]int{i, j}] = serial.Plan(src, dst)
		}
	}

	shared := New(exact(), AlgoGroup)
	const workers = 8
	seen := make([]map[*model.Graph]*modelIndex, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		seen[w] = make(map[*model.Graph]*modelIndex)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker walks every pair from its own starting offset, so
			// the workers collide on cold graphs from the first plan on.
			n := len(models)
			for k := 0; k < n*n; k++ {
				pk := (k + w*n/2) % (n * n)
				i, j := pk/n, pk%n
				src, dst := models[i], models[j]
				got := shared.Plan(src, dst)
				if !reflect.DeepEqual(got, want[[2]int{i, j}]) {
					t.Errorf("worker %d: %s→%s differs from the serial plan", w, src.Name, dst.Name)
				}
				for _, g := range []*model.Graph{src, dst} {
					ix := shared.index(g)
					if prev, ok := seen[w][g]; ok && prev != ix {
						t.Errorf("worker %d: index entry of %s changed between plans", w, g.Name)
					}
					seen[w][g] = ix
				}
			}
		}(w)
	}
	wg.Wait()

	if len(shared.idx) != len(models) {
		t.Errorf("index holds %d entries, want %d", len(shared.idx), len(models))
	}
	for w := range seen {
		for g, ix := range seen[w] {
			if shared.idx[g] != ix {
				t.Errorf("worker %d read an index entry for %s that the planner did not keep", w, g.Name)
			}
		}
	}
}
