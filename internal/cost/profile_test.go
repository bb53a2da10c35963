package cost

import (
	"math"
	"testing"
	"time"

	"repro/internal/model"
)

func conv(k, in, out int, wid uint64) *model.Operation {
	return &model.Operation{
		Name: "conv", Type: model.OpConv2D,
		Shape:     model.Shape{KernelH: k, KernelW: k, InChannels: in, OutChannels: out, Stride: 1},
		WeightsID: wid,
	}
}

// TestConvScaleRatio pins the Fig 4 calibration: loading conv3x3 over 512
// channels costs ~78.67% more than over 64 channels.
func TestConvScaleRatio(t *testing.T) {
	p := CPU()
	small := p.OpStructureLoad(conv(3, 64, 64, 1))
	big := p.OpStructureLoad(conv(3, 512, 512, 2))
	ratio := float64(big) / float64(small)
	if math.Abs(ratio-1.7867) > 0.15 {
		t.Errorf("conv512/conv64 structure-load ratio = %.3f, want ≈ 1.79", ratio)
	}
}

// TestConvVsActivation pins Fig 4: CONV loads up to ~10× slower than an
// activation.
func TestConvVsActivation(t *testing.T) {
	p := CPU()
	act := &model.Operation{Type: model.OpReLU, Shape: model.Shape{OutChannels: 512}}
	c := p.OpLoad(conv(3, 512, 512, 1))
	a := p.OpLoad(act)
	if ratio := float64(c) / float64(a); ratio < 8 {
		t.Errorf("conv/activation load ratio = %.1f, want ≥ 8", ratio)
	}
	if a == 0 {
		t.Error("activation load should be nonzero")
	}
}

func TestWeightedOpsLoadSlower(t *testing.T) {
	p := CPU()
	weighted := p.OpLoad(&model.Operation{Type: model.OpDense, Shape: model.Shape{InChannels: 256, OutChannels: 256}, WeightsID: 1})
	for _, typ := range []model.OpType{model.OpReLU, model.OpMaxPool, model.OpAdd} {
		free := p.OpLoad(&model.Operation{Type: typ, Shape: model.Shape{KernelH: 2, KernelW: 2, OutChannels: 256}})
		if free >= weighted {
			t.Errorf("%s load %v ≥ dense load %v", typ, free, weighted)
		}
	}
}

func TestModelLoadBreakdown(t *testing.T) {
	p := CPU()
	b := model.NewBuilder("m", "test", "")
	b.Input(3)
	b.Conv("c1", 3, 3, 128, 1)
	b.ReLU("r1", 128)
	b.Dense("d1", 4096, 4096)
	b.Dense("d2", 4096, 1000)
	g := b.Graph()

	br := p.ModelLoad(g)
	if br.Total() != br.Deserialize+br.Structure+br.Weights {
		t.Fatal("Total != sum of parts")
	}
	if br.Structure <= br.Weights {
		t.Errorf("structure %v should dominate weights %v (Fig 3)", br.Structure, br.Weights)
	}
	if br.Deserialize > br.Total()/20 {
		t.Errorf("deserialize %v should be negligible vs total %v", br.Deserialize, br.Total())
	}
	if cs := p.ColdStart(g); cs != p.SandboxInit+br.Total() {
		t.Errorf("ColdStart = %v, want sandbox+load = %v", cs, p.SandboxInit+br.Total())
	}
}

// TestReshapeCheaperThanLoad pins Fig 5c: in-container scaling of a CONV
// costs roughly a third of loading it from scratch.
func TestReshapeCheaperThanLoad(t *testing.T) {
	p := CPU()
	dst := conv(5, 64, 64, 2)
	load := p.OpLoad(dst)
	for _, k := range []int{1, 2, 3, 4, 6, 7} {
		src := conv(k, 64, 64, 1)
		resh := p.ReshapeCost(src, dst)
		if resh >= load {
			t.Errorf("reshape %dx%d→5x5 = %v, not cheaper than load %v", k, k, resh, load)
		}
	}
	r := p.ReshapeCost(conv(3, 64, 64, 1), dst)
	if frac := float64(r) / float64(load); frac < 0.15 || frac > 0.6 {
		t.Errorf("reshape/load fraction = %.2f, want ≈ 1/3", frac)
	}
}

func TestSubstituteCost(t *testing.T) {
	p := CPU()
	a := conv(3, 64, 64, 1)
	same := conv(3, 64, 64, 1)
	reweighted := conv(3, 64, 64, 2)
	reshaped := conv(5, 64, 64, 2)
	dense := &model.Operation{Type: model.OpDense, Shape: model.Shape{InChannels: 64, OutChannels: 64}, WeightsID: 3}

	if c, ok := p.SubstituteCost(a, same); !ok || c != 0 {
		t.Errorf("identical substitute = (%v, %v), want (0, true)", c, ok)
	}
	if c, ok := p.SubstituteCost(a, reweighted); !ok || c != p.ReplaceCost(reweighted) {
		t.Errorf("same-shape substitute = (%v, %v), want ReplaceCost", c, ok)
	}
	if c, ok := p.SubstituteCost(a, reshaped); !ok || c != p.ReshapeCost(a, reshaped)+p.ReplaceCost(reshaped) {
		t.Errorf("reshape substitute = (%v, %v), want Reshape+Replace", c, ok)
	}
	if _, ok := p.SubstituteCost(a, dense); ok {
		t.Error("cross-type substitution should be impossible")
	}
	// Substitution of a same-type op must beat Add (the planner's whole premise).
	if c, _ := p.SubstituteCost(a, reshaped); c >= p.AddCost(reshaped) {
		t.Errorf("substitute %v ≥ add %v: transformation would never win", c, p.AddCost(reshaped))
	}
}

func TestWeightFreeMetaOps(t *testing.T) {
	p := CPU()
	relu1 := &model.Operation{Type: model.OpReLU, Shape: model.Shape{OutChannels: 64}}
	relu2 := &model.Operation{Type: model.OpReLU, Shape: model.Shape{OutChannels: 512}}
	if c := p.ReplaceCost(relu1); c != 0 {
		t.Errorf("Replace on weight-free op = %v, want 0", c)
	}
	c, ok := p.SubstituteCost(relu1, relu2)
	if !ok || c != p.ReshapeCost(relu1, relu2) {
		t.Errorf("weight-free substitute = (%v,%v)", c, ok)
	}
	if c >= p.AddCost(relu2) {
		t.Errorf("weight-free substitute %v should beat add %v", c, p.AddCost(relu2))
	}
}

func TestEdgeAndReduceCosts(t *testing.T) {
	p := CPU()
	if p.EdgeCost(0) != 0 {
		t.Error("EdgeCost(0) != 0")
	}
	if p.EdgeCost(10) != 10*p.EdgeCostPer {
		t.Error("EdgeCost not linear")
	}
	// Reduce is constant regardless of op size (§4.4 observation 4).
	big, small := conv(7, 512, 512, 1), conv(1, 8, 8, 1)
	if p.ReduceCost(big) != p.ReduceCost(small) {
		t.Error("ReduceCost not constant")
	}
	// Edge is the cheapest meta-operator.
	if p.EdgeCostPer >= p.ReduceCostPer {
		t.Error("edge should be cheaper than reduce")
	}
}

func TestGPUProfile(t *testing.T) {
	cpu, gpu := CPU(), GPU()
	if gpu.SandboxInit <= cpu.SandboxInit {
		t.Error("GPU sandbox init should exceed CPU (CUDA context)")
	}
	g := model.NewBuilder("m", "test", "")
	g.Input(3)
	g.Conv("c", 3, 3, 256, 1)
	g.Dense("d", 256, 1000)
	graph := g.Graph()
	if gpu.Compute(graph) >= cpu.Compute(graph) {
		t.Error("GPU compute should beat CPU")
	}
	if gpu.ColdStart(graph) <= cpu.ColdStart(graph) {
		t.Error("GPU cold start should exceed CPU (Fig 16)")
	}
	// Mutating the GPU profile's StructBase must not corrupt a fresh CPU profile.
	gpu.StructBase[model.OpConv2D] = 0
	if CPU().StructBase[model.OpConv2D] == 0 {
		t.Error("GPU() aliases CPU() base map")
	}
}

func TestComputeCountsOnlyWeights(t *testing.T) {
	p := CPU()
	b := model.NewBuilder("m", "test", "")
	b.Input(3)
	b.Conv("c", 3, 3, 64, 1)
	withConv := p.Compute(b.Graph())
	b.ReLU("r", 64) // weight-free: should not change compute beyond zero
	withRelu := p.Compute(b.Graph())
	if withRelu != withConv {
		t.Errorf("weight-free op changed compute: %v vs %v", withRelu, withConv)
	}
	if withConv <= p.ComputeBase {
		t.Error("weighted op did not add compute time")
	}
}

func TestEstimator(t *testing.T) {
	p := CPU()
	exact := Exact(p)
	a, b := conv(3, 64, 64, 1), conv(5, 64, 64, 2)
	ce, ok := exact.SubstituteCost(a, b)
	cp, _ := p.SubstituteCost(a, b)
	if !ok || ce != cp {
		t.Errorf("exact estimator deviates: %v vs %v", ce, cp)
	}
	n1 := NewEstimator(p, 0.2, 42)
	n2 := NewEstimator(p, 0.2, 42)
	n3 := NewEstimator(p, 0.2, 43)
	c1, _ := n1.SubstituteCost(a, b)
	c2, _ := n2.SubstituteCost(a, b)
	if c1 != c2 {
		t.Error("same-seed estimators disagree")
	}
	different := false
	for _, op := range []*model.Operation{a, b, conv(7, 128, 128, 3)} {
		x := n1.AddCost(op)
		y := n3.AddCost(op)
		if x != y {
			different = true
		}
		// Noise bounded by ±20 %.
		truth := float64(p.AddCost(op))
		if f := float64(x) / truth; f < 0.79 || f > 1.21 {
			t.Errorf("noise factor %.3f outside ±20%%", f)
		}
	}
	if !different {
		t.Error("different seeds produced identical noise")
	}
	if n1.Profile() != p {
		t.Error("Profile accessor wrong")
	}
	if n1.EdgeCost(3) != p.EdgeCost(3) {
		t.Error("edge cost should be noise-free")
	}
}

func TestDurClampsNegative(t *testing.T) {
	if d := dur(-5); d != 0 {
		t.Errorf("dur(-5) = %v, want 0", d)
	}
}

func TestReshapeAsymmetric(t *testing.T) {
	p := CPU()
	small, big := conv(1, 64, 64, 1), conv(3, 64, 64, 2)
	up := p.ReshapeCost(small, big)
	down := p.ReshapeCost(big, small)
	// Growing re-allocates; shrinking is a cheap view (§8.2 observation 2).
	if up <= down {
		t.Errorf("grow (%v) should cost more than shrink (%v)", up, down)
	}
	if up <= p.ReshapeBase || down <= p.ReshapeBase {
		t.Error("reshape ignored weight delta")
	}
	var zero time.Duration = p.ReshapeCost(small, conv(1, 64, 64, 9))
	if zero != p.ReshapeBase {
		t.Error("same-shape reshape should cost only the base")
	}
}

func TestReshapeable(t *testing.T) {
	p := CPU()
	a := conv(3, 64, 64, 1)
	if !p.Reshapeable(a, conv(5, 64, 64, 2)) {
		t.Error("moderate reshape should be allowed")
	}
	if p.Reshapeable(a, conv(7, 512, 512, 2)) {
		t.Error("extreme (8x per channel dim) reshape should be ruled out")
	}
	// The strawman's 1x1→5x5 scaling must stay legal at any kernel ratio
	// (Fig 5b): only channel dimensions are bounded.
	if !p.Reshapeable(conv(1, 8, 8, 1), conv(7, 8, 8, 2)) {
		t.Error("strawman 1x1→7x7 conv scaling must be reshapeable")
	}
	if p.Reshapeable(a, &model.Operation{Type: model.OpDense, Shape: model.Shape{InChannels: 64, OutChannels: 64}}) {
		t.Error("cross-type reshape impossible")
	}
	relu1 := &model.Operation{Type: model.OpReLU, Shape: model.Shape{OutChannels: 2}}
	relu2 := &model.Operation{Type: model.OpReLU, Shape: model.Shape{OutChannels: 4096}}
	if !p.Reshapeable(relu1, relu2) {
		t.Error("weight-free reshape unconstrained")
	}
	// BERT-Base→BERT-Mini attention projections scale 9x: must stay legal
	// (§5.2 Example 1).
	qBase := &model.Operation{Type: model.OpQuery, Shape: model.Shape{InChannels: 768, OutChannels: 768}}
	qMini := &model.Operation{Type: model.OpQuery, Shape: model.Shape{InChannels: 256, OutChannels: 256}}
	qTiny := &model.Operation{Type: model.OpQuery, Shape: model.Shape{InChannels: 128, OutChannels: 128}}
	if !p.Reshapeable(qBase, qMini) || !p.Reshapeable(qMini, qBase) {
		t.Error("BERT base↔mini projections must be reshapeable")
	}
	if !p.Reshapeable(qBase, qTiny) {
		t.Error("BERT base→tiny (6x per dim) must be reshapeable")
	}
	if _, ok := p.SubstituteCost(a, conv(7, 512, 512, 2)); ok {
		t.Error("SubstituteCost should refuse un-reshapeable pairs")
	}
}

func TestOnlineProfilingConverges(t *testing.T) {
	p := CPU()
	e := NewEstimator(p, 0.5, 3)
	start := e.Miscalibration()
	if start == 0 {
		t.Fatal("estimator should start miscalibrated")
	}
	// Observe disabled: no learning.
	cv := conv(3, 64, 64, 1)
	pred := e.AddCost(cv)
	e.Observe(model.OpConv2D, pred, p.AddCost(cv))
	if e.Observations() != 0 {
		t.Fatal("Observe should be a no-op before EnableOnlineProfiling")
	}
	e.EnableOnlineProfiling(0.3)
	for i := 0; i < 200; i++ {
		for _, typ := range model.AllOpTypes() {
			op := *cv
			op.Type = typ
			predicted := e.AddCost(&op)
			actual := p.AddCost(&op)
			e.Observe(typ, predicted, actual)
		}
	}
	if got := e.Miscalibration(); got > start/10 {
		t.Errorf("miscalibration %.4f did not converge from %.4f", got, start)
	}
	if e.Observations() == 0 {
		t.Error("observations not counted")
	}
	// Degenerate predictions are ignored.
	before := e.Observations()
	e.Observe(model.OpConv2D, 0, time.Second)
	if e.Observations() != before {
		t.Error("zero prediction should be ignored")
	}
}

// TestMiscalibrationDeterministic: on an estimator that has learned online,
// Miscalibration returns the same bits on every call, equal to the mean
// absolute factor error summed in op-type order.
func TestMiscalibrationDeterministic(t *testing.T) {
	p := CPU()
	e := NewEstimator(p, 0.5, 11)
	e.EnableOnlineProfiling(0.2)
	cv := conv(3, 64, 64, 1)
	for i, typ := range model.AllOpTypes() {
		op := *cv
		op.Type = typ
		e.Observe(typ, e.AddCost(&op), p.AddCost(&op)*time.Duration(i%3+1))
	}
	var sum float64
	types := model.AllOpTypes()
	for _, typ := range types {
		sum += math.Abs(e.Snapshot().factor[typ] - 1)
	}
	want := sum / float64(len(types))
	first := e.Miscalibration()
	if math.Float64bits(first) != math.Float64bits(want) {
		t.Fatalf("Miscalibration = %v (%#x), ordered reference sum gives %v (%#x)",
			first, math.Float64bits(first), want, math.Float64bits(want))
	}
	for i := 0; i < 100; i++ {
		if got := e.Miscalibration(); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d: Miscalibration = %v, first call gave %v", i, got, first)
		}
	}
}
