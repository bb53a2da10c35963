package planner

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/model"
	"repro/internal/zoo"
)

func exact() *cost.Estimator { return cost.Exact(cost.CPU()) }

// chain builds a small sequential model from (type, width) specs.
func chain(name string, specs ...model.Operation) *model.Graph {
	b := model.NewBuilder(name, "test", name)
	for _, s := range specs {
		b.Add(s)
	}
	return b.Graph()
}

func convOp(name string, k, in, out int) model.Operation {
	return model.Operation{Name: name, Type: model.OpConv2D,
		Shape: model.Shape{KernelH: k, KernelW: k, InChannels: in, OutChannels: out, Stride: 1}}
}

func reluOp(name string, w int) model.Operation {
	return model.Operation{Name: name, Type: model.OpReLU, Shape: model.Shape{OutChannels: w}}
}

func TestHungarianMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6) // matrix sizes 2..7
		mx := &Matrix{N: n / 2, M: n - n/2, c: make([]float64, n*n)}
		for i := 0; i < n*n; i++ {
			mx.c[i] = float64(rng.Intn(1000))
		}
		_, hCost := hungarian(mx)
		_, bCost := bruteForce(mx)
		if math.Abs(hCost-bCost) > 1e-9 {
			t.Fatalf("trial %d: hungarian %v != brute %v", trial, hCost, bCost)
		}
	}
}

func TestBruteForceRejectsLargeMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bruteForce accepted an oversized matrix")
		}
	}()
	n := bruteForceLimit + 1
	bruteForce(&Matrix{N: n, M: 0, c: make([]float64, n*n)})
}

func TestMatrixLayout(t *testing.T) {
	src := chain("s", convOp("c1", 3, 8, 8), reluOp("r1", 8))
	dst := chain("d", convOp("c1", 5, 8, 8))
	est := exact()
	mx := BuildMatrix(est, src, dst)
	if mx.N != 2 || mx.M != 1 || mx.Size() != 3 {
		t.Fatalf("matrix dims N=%d M=%d", mx.N, mx.M)
	}
	// Substitution conv→conv possible; relu→conv impossible.
	if mx.At(0, 0) >= big {
		t.Error("conv→conv substitution should be feasible")
	}
	if mx.At(1, 0) < big {
		t.Error("relu→conv substitution should be infeasible")
	}
	// Deletion diagonal finite, off-diagonal big.
	if mx.At(0, 1) >= big || mx.At(1, 2) >= big {
		t.Error("deletion diagonal should be finite")
	}
	if mx.At(0, 2) < big {
		t.Error("deletion off-diagonal should be big")
	}
	// Insertion row: diagonal finite.
	if mx.At(2, 0) >= big {
		t.Error("insertion diagonal should be finite")
	}
	// Bottom-right zero block.
	if mx.At(2, 1) != 0 || mx.At(2, 2) != 0 {
		t.Error("ε→ε block should be zero")
	}
}

// TestPlanOnIdenticalModels: a no-op transformation has zero cost and empty
// steps.
func TestPlanOnIdenticalModels(t *testing.T) {
	g := chain("m", convOp("c1", 3, 8, 16), reluOp("r1", 16), convOp("c2", 3, 16, 16))
	for _, algo := range []Algorithm{AlgoGroup, AlgoHungarian, AlgoBrute} {
		p := New(exact(), algo).Plan(g, g)
		if len(p.Steps) != 0 || p.EstCost != 0 {
			t.Errorf("%v: identical transform has %d steps, cost %v", algo, len(p.Steps), p.EstCost)
		}
		if p.LoadFromScratch {
			t.Errorf("%v: identical transform triggered safeguard", algo)
		}
	}
}

// TestPlanSameStructureDifferentWeights reproduces strawman Case 1: the plan
// is pure Replace and far cheaper than loading from scratch (Fig 5a).
func TestPlanSameStructureDifferentWeights(t *testing.T) {
	img := zoo.Imgclsmob()
	src := img.MustGet("resnet50-cifar10")
	dst := img.MustGet("resnet50-svhn")
	p := New(exact(), AlgoGroup).Plan(src, dst)
	if p.LoadFromScratch {
		t.Fatal("same-structure transform triggered safeguard")
	}
	for _, s := range p.Steps {
		if s.Kind != metaop.KindReplace {
			t.Fatalf("unexpected %v step in same-structure plan", s.Kind)
		}
	}
	if frac := float64(p.EstCost) / float64(p.ScratchCost); frac > 0.35 {
		t.Errorf("replace-only plan costs %.2f of scratch load, want ≪ 1", frac)
	}
}

// TestPlanReshapeCase reproduces strawman Case 2: same op counts, one conv
// kernel differs → single Reshape(+Replace), cheaper than scratch.
func TestPlanReshapeCase(t *testing.T) {
	src := chain("a", convOp("c1", 1, 8, 8), reluOp("r", 8), convOp("c2", 3, 8, 8))
	dst := chain("b", convOp("c1", 5, 8, 8), reluOp("r", 8), convOp("c2", 3, 8, 8))
	// Make the unchanged conv share weights so only the 1×1→5×5 edit remains.
	dst.Op(2).WeightsID = src.Op(2).WeightsID
	dst.Op(0).WeightsID = model.WeightsIDFor("b", "c1")

	p := New(exact(), AlgoHungarian).Plan(src, dst)
	counts := p.CountByKind()
	if counts[metaop.KindReshape] != 1 {
		t.Fatalf("want exactly 1 reshape, got %v", counts)
	}
	if counts[metaop.KindAdd] != 0 || counts[metaop.KindReduce] != 0 {
		t.Fatalf("no add/reduce expected, got %v", counts)
	}
	if p.LoadFromScratch {
		t.Fatal("reshape case triggered safeguard")
	}
	if err := metaop.Verify(cost.CPU(), p, src, dst); err != nil {
		t.Fatal(err)
	}
}

// TestPlanAddAndReduce: growing a model uses Add, shrinking uses Reduce, and
// shrinking is cheaper (the asymmetry observed in §8.2).
func TestPlanAddAndReduce(t *testing.T) {
	small := chain("small", convOp("c1", 3, 8, 8), reluOp("r1", 8))
	big := chain("big", convOp("c1", 3, 8, 8), reluOp("r1", 8),
		convOp("c2", 3, 8, 16), reluOp("r2", 16))
	big.Op(0).WeightsID = small.Op(0).WeightsID

	est := exact()
	grow := New(est, AlgoHungarian).Plan(small, big)
	shrink := New(est, AlgoHungarian).Plan(big, small)
	if grow.CountByKind()[metaop.KindAdd] != 2 { // conv c2 and relu r2
		t.Fatalf("grow plan: %v", grow.CountByKind())
	}
	if shrink.CountByKind()[metaop.KindReduce] != 2 {
		t.Fatalf("shrink plan: %v", shrink.CountByKind())
	}
	if shrink.EstCost >= grow.EstCost {
		t.Errorf("shrink (%v) should be cheaper than grow (%v)", shrink.EstCost, grow.EstCost)
	}
	for _, p := range []*metaop.Plan{grow, shrink} {
		dst := big
		src := small
		if p == shrink {
			src, dst = big, small
		}
		if err := metaop.Verify(cost.CPU(), p, src, dst); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGroupNearOptimal checks Module 2⁺ against the Hungarian optimum on
// real model pairs: the group plan must be within 15 % of optimal node cost
// (the paper reports "nearly optimal").
func TestGroupNearOptimal(t *testing.T) {
	img := zoo.Imgclsmob()
	est := exact()
	pairs := [][2]string{
		{"vgg16-imagenet", "vgg19-imagenet"},
		{"resnet18-imagenet", "resnet34-imagenet"},
		{"mobilenet-w1-imagenet", "mobilenet-w0.75-imagenet"},
	}
	for _, pr := range pairs {
		src, dst := img.MustGet(pr[0]), img.MustGet(pr[1])
		opt := New(est, AlgoHungarian).Plan(src, dst)
		grp := New(est, AlgoGroup).Plan(src, dst)
		if opt.EstCost == 0 {
			continue
		}
		ratio := float64(grp.EstCost) / float64(opt.EstCost)
		// Hungarian is optimal on node costs only; the group plan can edge it
		// out slightly on edge-rewiring costs, but never by much.
		if ratio < 0.90 {
			t.Errorf("%s→%s: group (%v) beat 'optimal' hungarian (%v) by >10%%", pr[0], pr[1], grp.EstCost, opt.EstCost)
		}
		if ratio > 1.15 {
			t.Errorf("%s→%s: group plan %.3f× optimal, want ≤ 1.15×", pr[0], pr[1], ratio)
		}
	}
}

// TestSafeguardCrossFamily: CNN↔transformer transformation always costs more
// than loading from scratch, so the safeguard fires (§8.2 observation 3).
func TestSafeguardCrossFamily(t *testing.T) {
	img, bert := zoo.Imgclsmob(), zoo.BERTZoo()
	src := img.MustGet("resnet50-imagenet")
	dst := bert.MustGet("bert-base-uncased")
	for _, algo := range []Algorithm{AlgoGroup, AlgoHungarian} {
		p := New(exact(), algo).Plan(src, dst)
		if !p.LoadFromScratch {
			t.Errorf("%v: CNN→transformer did not trigger safeguard (cost %v vs scratch %v)",
				algo, p.EstCost, p.ScratchCost)
		}
		// The safeguard path must still produce the destination model.
		if err := metaop.Verify(cost.CPU(), p, src, dst); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlansExecuteOnZooPairs: every plan over a sample of real model pairs
// executes to a graph Equal to the destination.
func TestPlansExecuteOnZooPairs(t *testing.T) {
	img := zoo.Imgclsmob()
	bert := zoo.BERTZoo()
	prof := cost.CPU()
	est := exact()
	names := []string{
		"vgg11-imagenet", "vgg19-imagenet", "resnet18-imagenet", "resnet50-imagenet",
		"densenet121-imagenet", "mobilenetv2-w1-imagenet", "xception-imagenet",
		"squeezenet-v1.0-cifar10", "shufflenet-w1-imagenet",
	}
	graphs := make([]*model.Graph, 0, len(names)+3)
	for _, n := range names {
		graphs = append(graphs, img.MustGet(n))
	}
	graphs = append(graphs, bert.MustGet("bert-tiny"), bert.MustGet("bert-base-uncased"), bert.MustGet("bert-base-qa"))

	for _, algo := range []Algorithm{AlgoGroup, AlgoHungarian} {
		pl := New(est, algo)
		for i, src := range graphs {
			dst := graphs[(i+1)%len(graphs)]
			p := pl.Plan(src, dst)
			if err := metaop.Verify(prof, p, src, dst); err != nil {
				t.Fatalf("%v %s→%s: %v", algo, src.Name, dst.Name, err)
			}
		}
	}
}

// TestSameFamilyCheaperThanCross pins the Fig 11 shape: transformation
// within a family beats transformation across families.
func TestSameFamilyCheaperThanCross(t *testing.T) {
	img := zoo.Imgclsmob()
	est := exact()
	pl := New(est, AlgoGroup)
	vgg16 := img.MustGet("vgg16-imagenet")
	vgg19 := img.MustGet("vgg19-imagenet")
	resnet50 := img.MustGet("resnet50-imagenet")
	within := pl.Plan(vgg19, vgg16)
	cross := pl.Plan(resnet50, vgg16)
	if within.EstCost >= cross.EstCost {
		t.Errorf("VGG19→VGG16 (%v) should beat ResNet50→VGG16 (%v)", within.EstCost, cross.EstCost)
	}
}

// TestTransformBeatsScratchWithinFamily pins the headline §8.2 result: the
// transformation is far cheaper than loading from scratch for similar models.
func TestTransformBeatsScratchWithinFamily(t *testing.T) {
	img := zoo.Imgclsmob()
	pl := New(exact(), AlgoGroup)
	pairs := [][2]string{
		{"vgg16-imagenet", "vgg19-imagenet"},
		{"resnet50-imagenet", "resnet101-imagenet"},
		{"densenet121-imagenet", "densenet169-imagenet"},
	}
	for _, pr := range pairs {
		src, dst := img.MustGet(pr[0]), img.MustGet(pr[1])
		p := pl.Plan(src, dst)
		if p.LoadFromScratch {
			t.Errorf("%s→%s triggered safeguard", pr[0], pr[1])
			continue
		}
		if frac := float64(p.EstCost) / float64(p.ScratchCost); frac > 0.7 {
			t.Errorf("%s→%s: transform %.2f of scratch, want < 0.7", pr[0], pr[1], frac)
		}
	}
}

// TestBERTDownstreamTransformCheap pins §5.2 Example 2: transforming between
// downstream-task variants of the same base is nearly free (head-only edits).
func TestBERTDownstreamTransformCheap(t *testing.T) {
	bert := zoo.BERTZoo()
	pl := New(exact(), AlgoGroup)
	sc := bert.MustGet("bert-base-sc")
	qa := bert.MustGet("bert-base-qa")
	p := pl.Plan(sc, qa)
	if p.LoadFromScratch {
		t.Fatal("SC→QA triggered safeguard")
	}
	if frac := float64(p.EstCost) / float64(p.ScratchCost); frac > 0.1 {
		t.Errorf("SC→QA costs %.3f of scratch, want < 0.1", frac)
	}
	// Large→small BERT should lean on Reduce (§5.2 Example 1).
	base := bert.MustGet("bert-base-uncased")
	mini := bert.MustGet("bert-mini")
	p2 := pl.Plan(base, mini)
	if p2.CountByKind()[metaop.KindReduce] == 0 {
		t.Error("base→mini plan uses no Reduce")
	}
	if err := metaop.Verify(cost.CPU(), p2, base, mini); err != nil {
		t.Fatal(err)
	}
}

func TestMappingCost(t *testing.T) {
	src := chain("s", convOp("c1", 3, 8, 8), reluOp("r", 8))
	dst := chain("d", convOp("c1", 3, 8, 8))
	dst.Op(0).WeightsID = src.Op(0).WeightsID
	est := exact()
	mp := Mapping{SrcToDst: []int{0, -1}}
	got := MappingCost(est, src, dst, mp)
	want := float64(est.ReduceCost(src.Op(1)))
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("MappingCost = %v, want %v", got, want)
	}
	// Cross-type mapping is infeasible.
	bad := Mapping{SrcToDst: []int{-1, 0}}
	if !math.IsInf(MappingCost(est, src, dst, bad), 1) {
		t.Error("cross-type mapping should cost +inf")
	}
}

func TestCache(t *testing.T) {
	img := zoo.Imgclsmob()
	src := img.MustGet("resnet18-imagenet")
	dst := img.MustGet("resnet34-imagenet")
	c := NewCache()
	pl := New(exact(), AlgoGroup)
	if _, ok := c.Get(src, dst); ok {
		t.Fatal("empty cache hit")
	}
	p1 := c.GetOrPlan(pl, src, dst)
	p2 := c.GetOrPlan(pl, src, dst)
	if p1 != p2 {
		t.Fatal("cache did not return the stored plan")
	}
	if k, ok := c.Get(src, dst); !ok || k.Plan() != p1 {
		t.Fatal("probe missed the stored plan")
	}
	if n := built(c); n != 1 || c.Counters().Size != 1 {
		t.Fatalf("%d pairs have steps, size %d; want 1 each", n, c.Counters().Size)
	}
	// Get is a probe: only the two GetOrPlan calls count.
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}
	// Same structure, different weights → different key.
	dst2 := img.MustGet("resnet34-cifar10")
	if _, ok := c.Get(src, dst2); ok {
		t.Fatal("cache confused different-weights destinations")
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgoGroup.String() != "group" || AlgoHungarian.String() != "hungarian" || AlgoBrute.String() != "brute" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm should still render")
	}
}

// TestRNNTransforms covers §7's RNN compatibility: same-cell size changes
// reshape; LSTM↔GRU cannot substitute (different types) but still execute;
// CNN↔RNN hits the safeguard.
func TestRNNTransforms(t *testing.T) {
	rnn := zoo.RNNZoo()
	pl := New(exact(), AlgoGroup)
	prof := cost.CPU()

	small := rnn.MustGet("lstm-1x128")
	big := rnn.MustGet("lstm-2x256")
	p := pl.Plan(big, small)
	if p.LoadFromScratch {
		t.Fatal("LSTM size-ladder transform safeguarded")
	}
	if err := metaop.Verify(prof, p, big, small); err != nil {
		t.Fatal(err)
	}
	if frac := float64(p.EstCost) / float64(p.ScratchCost); frac > 0.7 {
		t.Errorf("within-family RNN transform %.2f of scratch", frac)
	}

	// LSTM → GRU: recurrent cells cannot substitute across types.
	gru := rnn.MustGet("gru-2x256")
	lstm := rnn.MustGet("lstm-2x256")
	p2 := pl.Plan(lstm, gru)
	if err := metaop.Verify(prof, p2, lstm, gru); err != nil {
		t.Fatal(err)
	}
	for _, s := range p2.Steps {
		if s.Kind == metaop.KindReshape && s.Dst.Type == model.OpGRU {
			t.Fatal("reshaped an LSTM into a GRU")
		}
	}

	// CNN ↔ RNN: safeguard.
	cnn := zoo.Imgclsmob().MustGet("resnet50-imagenet")
	if p3 := pl.Plan(cnn, gru); !p3.LoadFromScratch {
		t.Error("CNN→RNN should be safeguarded")
	}
}

// TestGPTTransforms: decoder models transform like the BERT ladder, and
// GPT↔BERT pairs share the transformer operation vocabulary well enough for
// attention-for-attention substitution, while CNN↔GPT stays safeguarded.
func TestGPTTransforms(t *testing.T) {
	gpt := zoo.GPTZoo()
	pl := New(exact(), AlgoGroup)
	prof := cost.CPU()

	big := gpt.MustGet("gpt2")
	small := gpt.MustGet("distilgpt2")
	p := pl.Plan(big, small)
	if p.LoadFromScratch {
		t.Fatal("gpt2→distilgpt2 safeguarded")
	}
	if err := metaop.Verify(prof, p, big, small); err != nil {
		t.Fatal(err)
	}
	// Distillation shares embeddings, so the plan should be far below scratch.
	if frac := float64(p.EstCost) / float64(p.ScratchCost); frac > 0.6 {
		t.Errorf("gpt2→distilgpt2 costs %.2f of scratch", frac)
	}
	// Cross-transformer (GPT→BERT): same op vocabulary, verify executes.
	bert := zoo.BERTZoo().MustGet("bert-base-uncased")
	p2 := pl.Plan(big, bert)
	if err := metaop.Verify(prof, p2, big, bert); err != nil {
		t.Fatal(err)
	}
	// CNN→GPT remains safeguarded.
	cnn := zoo.Imgclsmob().MustGet("resnet50-imagenet")
	if p3 := pl.Plan(cnn, big); !p3.LoadFromScratch {
		t.Error("CNN→GPT should be safeguarded")
	}
}
