package policy

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/planner"
	"repro/internal/simulate"
	"repro/internal/zoo"
)

func testEnv() *simulate.Env {
	prof := cost.CPU()
	return &simulate.Env{
		Profile:       prof,
		Planner:       planner.New(cost.Exact(prof), planner.AlgoGroup),
		Plans:         planner.NewCache(),
		IdleThreshold: time.Minute,
		KeepAlive:     10 * time.Minute,
	}
}

func fn(name string) *simulate.Function {
	return &simulate.Function{Name: name, Model: zoo.Imgclsmob().MustGet(name)}
}

// nodeWithIdle returns a single-slot node holding an idle container of owner
// that has been idle for the given duration at time `now`.
func nodeWithIdle(owner *simulate.Function, idle, now time.Duration) *simulate.Node {
	n := &simulate.Node{ID: 0, Capacity: 1}
	n.Containers = []*simulate.Container{{
		ID: 1, Fn: owner, BusyUntil: 0, LastDone: now - idle,
	}}
	return n
}

func TestNames(t *testing.T) {
	want := map[string]bool{"openwhisk": true, "pagurus": true, "tetris": true, "optimus": true}
	for _, p := range All() {
		if !want[p.Name()] {
			t.Errorf("unexpected policy %q", p.Name())
		}
		delete(want, p.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing policies: %v", want)
	}
}

func TestAllPoliciesWarmStartFirst(t *testing.T) {
	env := testEnv()
	f := fn("resnet18-imagenet")
	now := 20 * time.Minute
	for _, p := range All() {
		n := nodeWithIdle(f, 2*time.Minute, now)
		d, ok := p.Serve(env, n, f, now)
		if !ok {
			t.Fatalf("%s: could not serve", p.Name())
		}
		if d.Kind != metrics.StartWarm || d.Reuse == nil {
			t.Errorf("%s: warm container not reused: %+v", p.Name(), d)
		}
		if d.Init != 0 || d.Load != 0 {
			t.Errorf("%s: warm start charged init/load", p.Name())
		}
	}
}

func TestAllPoliciesRefuseWhenSaturated(t *testing.T) {
	env := testEnv()
	a, b := fn("resnet18-imagenet"), fn("resnet34-imagenet")
	now := 20 * time.Minute
	for _, p := range All() {
		n := &simulate.Node{ID: 0, Capacity: 1}
		n.Containers = []*simulate.Container{{ID: 1, Fn: a, BusyUntil: now + time.Minute}}
		if _, ok := p.Serve(env, n, b, now); ok {
			t.Errorf("%s: served on a saturated node", p.Name())
		}
	}
}

func TestOpenWhiskNeverRepurposes(t *testing.T) {
	env := testEnv()
	a, b := fn("resnet18-imagenet"), fn("resnet34-imagenet")
	now := 20 * time.Minute
	n := nodeWithIdle(a, 9*time.Minute, now) // eminently repurposable
	d, ok := OpenWhisk{}.Serve(env, n, b, now)
	if !ok {
		t.Fatal("could not serve")
	}
	if d.Kind != metrics.StartCold || d.Reuse != nil {
		t.Errorf("openwhisk should cold start, got %+v", d)
	}
	if d.Init != env.Profile.SandboxInit {
		t.Errorf("cold init = %v", d.Init)
	}
	if d.Load != env.Profile.ModelLoad(b.Model).Total() {
		t.Errorf("cold load = %v", d.Load)
	}
}

func TestPagurusRepurposeChargesFullLoadOnly(t *testing.T) {
	env := testEnv()
	a, b := fn("resnet18-imagenet"), fn("resnet34-imagenet")
	now := 20 * time.Minute
	n := nodeWithIdle(a, 9*time.Minute, now)
	d, ok := Pagurus{}.Serve(env, n, b, now)
	if !ok {
		t.Fatal("could not serve")
	}
	if d.Kind != metrics.StartTransform || d.Reuse == nil {
		t.Fatalf("pagurus should repurpose: %+v", d)
	}
	if d.Init != 0 {
		t.Errorf("pagurus saves all init, got %v", d.Init)
	}
	if d.Load != env.Profile.ModelLoad(b.Model).Total() {
		t.Errorf("pagurus must still load the full model, got %v", d.Load)
	}
}

func TestOptimusPicksCheapestDonor(t *testing.T) {
	env := testEnv()
	// Two idle donors: a structurally similar resnet34 (cheap transform)
	// and a structurally distant vgg16.
	similar, distant := fn("resnet34-imagenet"), fn("vgg16-imagenet")
	target := fn("resnet50-imagenet")
	now := 30 * time.Minute
	n := &simulate.Node{ID: 0, Capacity: 2}
	n.Containers = []*simulate.Container{
		{ID: 1, Fn: distant, LastDone: now - 9*time.Minute},
		{ID: 2, Fn: similar, LastDone: now - 8*time.Minute},
	}
	d, ok := Optimus{}.Serve(env, n, target, now)
	if !ok {
		t.Fatal("could not serve")
	}
	if d.Kind != metrics.StartTransform {
		t.Fatalf("kind = %v", d.Kind)
	}
	if d.Reuse == nil || d.Reuse.Fn != similar {
		t.Errorf("optimus picked donor %v, want the structurally similar one", d.Reuse.Fn.Name)
	}
	if got := env.Plans.Counters().Planned; got != 0 {
		t.Errorf("Serve built steps for %d pairs on a cold cache, want 0 (costs only)", got)
	}
	if !d.Strategy.Valid() || d.Strategy.Plan() == nil {
		t.Fatal("transform decision missing plan")
	}
	if d.Load >= env.Profile.ModelLoad(target.Model).Total() {
		t.Errorf("transform load %v not below full load", d.Load)
	}
}

func TestOptimusSafeguardLoadsFreshInDonor(t *testing.T) {
	env := testEnv()
	donor := &simulate.Function{Name: "bert", Model: zoo.BERTZoo().MustGet("bert-base-uncased")}
	target := fn("resnet50-imagenet")
	now := 30 * time.Minute
	n := nodeWithIdle(donor, 9*time.Minute, now)
	d, ok := Optimus{}.Serve(env, n, target, now)
	if !ok {
		t.Fatal("could not serve")
	}
	if d.Kind != metrics.StartTransform || d.Reuse == nil {
		t.Fatalf("should still repurpose the container: %+v", d)
	}
	if got := env.Plans.Counters().Planned; got != 0 {
		t.Errorf("Serve built steps for %d pairs on a cold cache, want 0 (costs only)", got)
	}
	if !d.Strategy.Valid() || !d.Strategy.Plan().LoadFromScratch {
		t.Fatal("BERT→CNN should be safeguarded")
	}
	if d.Load != env.Profile.ModelLoad(target.Model).Total() {
		t.Errorf("safeguarded load = %v, want full load", d.Load)
	}
	if d.Init != 0 {
		t.Errorf("repurposed container still saves init, got %v", d.Init)
	}
}

func TestTetrisColdWithoutPeers(t *testing.T) {
	env := testEnv()
	b := fn("resnet34-imagenet")
	now := 20 * time.Minute
	n := &simulate.Node{ID: 0, Capacity: 2}
	d, ok := Tetris{}.Serve(env, n, b, now)
	if !ok {
		t.Fatal("could not serve")
	}
	if d.Kind != metrics.StartCold || d.Init != env.Profile.SandboxInit {
		t.Errorf("tetris without peers should full-cold-start: %+v", d)
	}
}

func TestTetrisForkPaysContainerCreate(t *testing.T) {
	env := testEnv()
	a, b := fn("resnet18-imagenet"), fn("resnet34-imagenet")
	now := 20 * time.Minute
	n := &simulate.Node{ID: 0, Capacity: 2}
	n.Containers = []*simulate.Container{{ID: 1, Fn: a, BusyUntil: now + time.Minute}}
	d, ok := Tetris{}.Serve(env, n, b, now)
	if !ok {
		t.Fatal("could not serve")
	}
	if d.Kind != metrics.StartTransform {
		t.Fatalf("kind = %v", d.Kind)
	}
	if d.Reuse != nil {
		t.Error("tetris forks a new container; it must not consume the donor")
	}
	want := env.Profile.ContainerCreate + 30*time.Millisecond
	if d.Init != want {
		t.Errorf("fork init = %v, want %v", d.Init, want)
	}
	if d.Load >= env.Profile.ModelLoad(b.Model).Total() {
		t.Errorf("tetris fork load %v should shave the deserialize-shared ops", d.Load)
	}
}

func TestIdleThresholdGate(t *testing.T) {
	env := testEnv()
	a, b := fn("resnet18-imagenet"), fn("resnet34-imagenet")
	now := 20 * time.Minute
	// Idle 30 s < 60 s threshold: not repurposable even on a full node.
	n := nodeWithIdle(a, 30*time.Second, now)
	d, ok := Optimus{}.Serve(env, n, b, now)
	if !ok {
		t.Fatal("could not serve (eviction path)")
	}
	if d.Kind == metrics.StartTransform {
		t.Error("repurposed a container below the idle threshold")
	}
}
