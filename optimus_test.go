package optimus

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTransformerRoundTrip(t *testing.T) {
	tf := NewTransformer(CPU, AlgoGroup)
	img := Imgclsmob()
	src := img.MustGet("resnet50-imagenet")
	dst := img.MustGet("resnet101-imagenet")

	plan := tf.Plan(src, dst)
	if plan.LoadFromScratch {
		t.Fatal("resnet50→resnet101 should not hit the safeguard")
	}
	got, took, err := tf.Transform(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(dst) {
		t.Fatal("transform result mismatch")
	}
	if took >= tf.LoadCost(dst) {
		t.Errorf("transform (%v) not cheaper than load (%v)", took, tf.LoadCost(dst))
	}
	// Plans are cached: second Plan returns the same pointer.
	if tf.Plan(src, dst) != plan {
		t.Error("plan cache miss on repeat")
	}
}

func TestTransformerCosts(t *testing.T) {
	tf := NewTransformer(CPU, AlgoGroup)
	m := Imgclsmob().MustGet("vgg16-imagenet")
	if tf.ColdStartCost(m) <= tf.LoadCost(m) {
		t.Error("cold start must include sandbox init on top of loading")
	}
	if tf.ComputeCost(m) <= 0 {
		t.Error("compute cost must be positive")
	}
	gpu := NewTransformer(GPU, AlgoGroup)
	if gpu.ColdStartCost(m) <= tf.ColdStartCost(m) {
		t.Error("GPU cold start should exceed CPU (§8.5)")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	img := Imgclsmob()
	sys := NewSystem(SystemConfig{
		Nodes:             2,
		ContainersPerNode: 2,
		Policy:            PolicyOptimus,
		VerifyTransforms:  true,
	})
	for _, n := range []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg16-imagenet"} {
		sys.MustRegister(n, img.MustGet(n))
	}
	tr := MixedPoissonTrace(sys.Functions(), 8*time.Hour, 7)
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != tr.Len() {
		t.Fatalf("served %d of %d", rep.Len(), tr.Len())
	}
	if rep.Verified == 0 {
		t.Error("no transformations verified")
	}
	if !strings.Contains(rep.Summary(), "requests") {
		t.Error("summary malformed")
	}
}

func TestSystemPolicies(t *testing.T) {
	img := Imgclsmob()
	names := []string{"resnet18-imagenet", "resnet50-imagenet", "vgg16-imagenet", "densenet121-imagenet"}
	tr := MixedPoissonTrace(names, 8*time.Hour, 3)
	means := map[PolicyName]time.Duration{}
	for _, p := range []PolicyName{PolicyOpenWhisk, PolicyPagurus, PolicyTetris, PolicyOptimus} {
		sys := NewSystem(SystemConfig{Nodes: 1, ContainersPerNode: 2, Policy: p})
		for _, n := range names {
			sys.MustRegister(n, img.MustGet(n))
		}
		rep, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		means[p] = rep.MeanLatency()
	}
	if means[PolicyOptimus] >= means[PolicyOpenWhisk] {
		t.Errorf("optimus (%v) should beat openwhisk (%v)", means[PolicyOptimus], means[PolicyOpenWhisk])
	}
}

func TestSystemRegistrationErrors(t *testing.T) {
	sys := NewSystem(SystemConfig{})
	if err := sys.Register("x", nil); err == nil {
		t.Error("nil model accepted")
	}
	m := Imgclsmob().MustGet("resnet18-imagenet")
	if err := sys.Register("x", m); err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("x", m); err == nil {
		t.Error("duplicate registration accepted")
	}
	bad := NewSystem(SystemConfig{Policy: "bogus"})
	bad.MustRegister("x", m)
	if _, err := bad.Run(MixedPoissonTrace([]string{"x"}, time.Hour, 1)); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestSystemWithBalancer(t *testing.T) {
	img := Imgclsmob()
	sys := NewSystem(SystemConfig{Nodes: 2, ContainersPerNode: 2, UseBalancer: true})
	for _, n := range []string{"resnet18-imagenet", "resnet34-imagenet", "vgg16-imagenet", "vgg19-imagenet"} {
		sys.MustRegister(n, img.MustGet(n))
	}
	tr := MixedPoissonTrace(sys.Functions(), 6*time.Hour, 5)
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != tr.Len() {
		t.Fatal("balancer run dropped requests")
	}
}

// TestSystemRunStreamMatchesRun streams a trace through a balancer-placed
// system, whose functions sit on one node each so the nodes split into
// groups that replay on parallel workers, and requires exactly the summary
// of Run's records on the same trace.
func TestSystemRunStreamMatchesRun(t *testing.T) {
	img := Imgclsmob()
	sys := NewSystem(SystemConfig{Nodes: 4, ContainersPerNode: 2, UseBalancer: true})
	for _, n := range []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg11-imagenet",
		"vgg16-imagenet", "vgg19-imagenet", "densenet121-imagenet", "mobilenet-w1-imagenet"} {
		sys.MustRegister(n, img.MustGet(n))
	}
	tr := MixedPoissonTrace(sys.Functions(), 6*time.Hour, 5)
	cfg, err := sys.simConfig(tr)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, ids := range cfg.Placement {
		if len(ids) != 1 {
			t.Fatalf("the balancer put a function on %d nodes, want 1", len(ids))
		}
		used[ids[0]] = true
	}
	if len(used) < 2 {
		t.Fatalf("the placement uses %d node, want a split into groups", len(used))
	}
	rep, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := sys.RunStream(tr)
	if err != nil {
		t.Fatal(err)
	}
	if want := &rep.Collector.Summary; *srep.Metrics != *want {
		t.Fatalf("stream summary != Run summary: %s vs %d requests, mean %v",
			srep.Summary(), want.Count(), want.MeanLatency())
	}
	if got := srep.Summary(); !strings.HasPrefix(got, fmt.Sprintf("%d requests: mean ", tr.Len())) {
		t.Errorf("summary malformed: %q", got)
	}
}

func TestNASBenchModelFacade(t *testing.T) {
	m, err := NASBenchModel(1234)
	if err != nil {
		t.Fatal(err)
	}
	if m.Family != "nasbench" {
		t.Errorf("family = %q", m.Family)
	}
	if _, err := NASBenchModel(-1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestBERTSafeguardViaFacade(t *testing.T) {
	tf := NewTransformer(CPU, AlgoGroup)
	cnn := Imgclsmob().MustGet("resnet50-imagenet")
	bert := BERTZoo().MustGet("bert-base-uncased")
	plan := tf.Plan(cnn, bert)
	if !plan.LoadFromScratch {
		t.Error("CNN→transformer should hit the safeguard")
	}
	// Safeguarded transforms still work (by loading fresh).
	got, took, err := tf.Transform(cnn, bert)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(bert) || took != tf.LoadCost(bert) {
		t.Error("safeguard path wrong")
	}
}

func TestRNNZooFacade(t *testing.T) {
	tf := NewTransformer(CPU, AlgoGroup)
	rnn := RNNZoo()
	src := rnn.MustGet("lstm-2x512")
	dst := rnn.MustGet("lstm-2x256")
	got, took, err := tf.Transform(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(dst) {
		t.Fatal("RNN transform mismatch")
	}
	if took >= tf.LoadCost(dst) {
		t.Errorf("RNN size-ladder transform (%v) should beat load (%v)", took, tf.LoadCost(dst))
	}
}
