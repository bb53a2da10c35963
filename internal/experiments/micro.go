package experiments

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/model"
	"repro/internal/planner"
)

// ---------------------------------------------------------------- Figure 2

// Fig2Row is one model's cold-request decomposition.
type Fig2Row struct {
	Model    string
	Params   int64
	Bytes    int64
	Init     time.Duration
	Load     time.Duration
	Compute  time.Duration
	Total    time.Duration
	LoadFrac float64
}

// Fig2Result reproduces Figure 2: request processing time and step breakdown
// for the VGG and ResNet families, plus the Fig 2c parameter/size table.
type Fig2Result struct{ Rows []Fig2Row }

// Fig2 runs the experiment.
func Fig2(o Options) Fig2Result {
	o = o.withDefaults()
	models := []string{
		"vgg11-imagenet", "vgg16-imagenet", "vgg19-imagenet",
		"resnet50-imagenet", "resnet101-imagenet", "resnet152-imagenet",
	}
	var res Fig2Result
	for _, name := range models {
		g := imgZoo.MustGet(name)
		st := g.Stats()
		load := o.Profile.ModelLoad(g).Total()
		comp := o.Profile.Compute(g)
		total := o.Profile.SandboxInit + load + comp
		res.Rows = append(res.Rows, Fig2Row{
			Model: name, Params: st.Params, Bytes: st.Bytes,
			Init: o.Profile.SandboxInit, Load: load, Compute: comp, Total: total,
			LoadFrac: float64(load) / float64(total),
		})
	}
	return res
}

// Render prints the Fig 2 table.
func (r Fig2Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, x := range r.Rows {
		rows = append(rows, []string{
			x.Model,
			fmt.Sprintf("%.1fM", float64(x.Params)/1e6),
			fmt.Sprintf("%dMB", x.Bytes/(1<<20)),
			ms(x.Init), ms(x.Load), ms(x.Compute), ms(x.Total), pct(x.LoadFrac),
		})
	}
	return "Figure 2: request processing time for varying models\n" +
		table([]string{"model", "params", "size", "init(ms)", "load(ms)", "compute(ms)", "total(ms)", "load%"}, rows)
}

// ---------------------------------------------------------------- Figure 3

// Fig3Result reproduces Figure 3: model-loading step latencies over a sample
// of Imgclsmob models.
type Fig3Result struct {
	Models []string
	// Fractions of total loading time, averaged over the sample.
	DeserializeFrac, StructureFrac, WeightsFrac float64
	// PerModel holds the per-model breakdowns in Models order.
	PerModel []cost.LoadBreakdown
}

// Fig3 samples n models (paper: 100) and decomposes their loading latency.
func Fig3(o Options, n int) Fig3Result {
	o = o.withDefaults()
	if o.Quick && n > 20 {
		n = 20
	}
	names := imgZoo.Names()
	rng := rand.New(rand.NewSource(o.Seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if n > len(names) {
		n = len(names)
	}
	names = names[:n]
	sort.Strings(names)

	var res Fig3Result
	var dSum, sSum, wSum float64
	for _, name := range names {
		b := o.Profile.ModelLoad(imgZoo.MustGet(name))
		t := float64(b.Total())
		dSum += float64(b.Deserialize) / t
		sSum += float64(b.Structure) / t
		wSum += float64(b.Weights) / t
		res.Models = append(res.Models, name)
		res.PerModel = append(res.PerModel, b)
	}
	k := float64(len(names))
	res.DeserializeFrac, res.StructureFrac, res.WeightsFrac = dSum/k, sSum/k, wSum/k
	return res
}

// Render prints the Fig 3 summary.
func (r Fig3Result) Render() string {
	return fmt.Sprintf(`Figure 3: model loading step latency over %d Imgclsmob models
  deserialize: %s of model loading (paper: negligible)
  structure:   %s (paper: 89.66%% avg)
  weights:     %s (paper: 10.28%% avg)
`, len(r.Models), pct(r.DeserializeFrac), pct(r.StructureFrac), pct(r.WeightsFrac))
}

// ---------------------------------------------------------------- Figure 4

// Fig4Row is the load latency of one operation kind in ResNet50.
type Fig4Row struct {
	Type  model.OpType
	Count int
	Mean  time.Duration
	Max   time.Duration
}

// Fig4Result reproduces Figure 4: loading latency per operation in ResNet50.
type Fig4Result struct{ Rows []Fig4Row }

// Fig4 runs the experiment.
func Fig4(o Options) Fig4Result {
	o = o.withDefaults()
	g := imgZoo.MustGet("resnet50-imagenet")
	byType := map[model.OpType][]time.Duration{}
	for _, op := range g.Ops() {
		byType[op.Type] = append(byType[op.Type], o.Profile.OpLoad(op))
	}
	var res Fig4Result
	for _, t := range model.AllOpTypes() {
		ds := byType[t]
		if len(ds) == 0 {
			continue
		}
		var sum, max time.Duration
		for _, d := range ds {
			sum += d
			if d > max {
				max = d
			}
		}
		res.Rows = append(res.Rows, Fig4Row{Type: t, Count: len(ds), Mean: sum / time.Duration(len(ds)), Max: max})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Mean > res.Rows[j].Mean })
	return res
}

// Render prints the Fig 4 table.
func (r Fig4Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, x := range r.Rows {
		rows = append(rows, []string{x.Type.String(), fmt.Sprint(x.Count), ms(x.Mean), ms(x.Max)})
	}
	return "Figure 4: loading latency for varying operations in ResNet50\n" +
		table([]string{"op", "count", "mean(ms)", "max(ms)"}, rows)
}

// ---------------------------------------------------------------- Figure 5a

// Fig5aRow compares a same-structure weight replacement against a full cold
// request for one model.
type Fig5aRow struct {
	Model     string
	ColdTotal time.Duration
	Transform time.Duration
	Reduction float64
}

// Fig5aResult reproduces Figure 5a: the strawman's Case-1 transformation.
type Fig5aResult struct {
	Rows          []Fig5aRow
	MeanReduction float64
}

// Fig5a runs the experiment over the VGG and ResNet families.
func Fig5a(o Options) Fig5aResult {
	o = o.withDefaults()
	pl := planner.New(cost.Exact(o.Profile), planner.AlgoGroup)
	models := []string{
		"vgg11-imagenet", "vgg16-imagenet", "vgg19-imagenet",
		"resnet50-imagenet", "resnet101-imagenet", "resnet152-imagenet",
	}
	var res Fig5aResult
	var sum float64
	for _, name := range models {
		g := imgZoo.MustGet(name)
		other := reweight(g, "retrained")
		plan := pl.Plan(other, g)
		transform := plan.TrueCost(o.Profile, other) + o.Profile.Compute(g)
		coldTotal := o.Profile.ColdStart(g) + o.Profile.Compute(g)
		red := 1 - float64(transform)/float64(coldTotal)
		res.Rows = append(res.Rows, Fig5aRow{Model: name, ColdTotal: coldTotal, Transform: transform, Reduction: red})
		sum += red
	}
	res.MeanReduction = sum / float64(len(models))
	return res
}

// Render prints the Fig 5a table.
func (r Fig5aResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, x := range r.Rows {
		rows = append(rows, []string{x.Model, ms(x.ColdTotal), ms(x.Transform), pct(x.Reduction)})
	}
	return "Figure 5a: same-structure transformation vs cold request (strawman Case 1)\n" +
		table([]string{"model", "cold(ms)", "transform(ms)", "reduction"}, rows) +
		fmt.Sprintf("mean reduction: %s (paper: 79.83%%)\n", pct(r.MeanReduction))
}

// ---------------------------------------------------------------- Figure 5c

// Fig5cResult reproduces Figure 5c: the CONV kernel scaling matrix. Cell
// (i,i) is the load latency of kernel i; cell (i,j) the reshape latency from
// kernel i to kernel j.
type Fig5cResult struct {
	Kernels  []int
	Channels int
	// Matrix[i][j] in the paper's orientation.
	Matrix [][]time.Duration
}

// Fig5c runs the experiment.
func Fig5c(o Options, kernels []int, channels int) Fig5cResult {
	o = o.withDefaults()
	if len(kernels) == 0 {
		kernels = []int{1, 2, 3, 4, 5, 6, 7}
	}
	if channels <= 0 {
		channels = 64
	}
	mk := func(k int, wid uint64) *model.Operation {
		return &model.Operation{Name: "conv", Type: model.OpConv2D,
			Shape:     model.Shape{KernelH: k, KernelW: k, InChannels: channels, OutChannels: channels, Stride: 1},
			WeightsID: wid}
	}
	res := Fig5cResult{Kernels: kernels, Channels: channels}
	for _, ki := range kernels {
		row := make([]time.Duration, 0, len(kernels))
		for _, kj := range kernels {
			if ki == kj {
				row = append(row, o.Profile.OpLoad(mk(kj, 2)))
				continue
			}
			c, _ := o.Profile.SubstituteCost(mk(ki, 1), mk(kj, 2))
			row = append(row, c)
		}
		res.Matrix = append(res.Matrix, row)
	}
	return res
}

// Render prints the Fig 5c matrix.
func (r Fig5cResult) Render() string {
	header := []string{fmt.Sprintf("from\\to (%dch)", r.Channels)}
	for _, k := range r.Kernels {
		header = append(header, fmt.Sprintf("%dx%d", k, k))
	}
	rows := make([][]string, 0, len(r.Kernels))
	for i, k := range r.Kernels {
		row := []string{fmt.Sprintf("%dx%d", k, k)}
		for j := range r.Kernels {
			row = append(row, ms(r.Matrix[i][j]))
		}
		rows = append(rows, row)
	}
	return "Figure 5c: CONV scaling matrix, ms (diagonal = load from scratch, off-diagonal = in-container reshape)\n" +
		table(header, rows)
}

// ---------------------------------------------------------------- Figure 8

// Fig8Row is the execution time of one profiled meta-operator instance.
type Fig8Row struct {
	Kind   metaop.Kind
	Target string
	Cost   time.Duration
}

// Fig8Result reproduces Figure 8: execution time of varying meta-operators
// profiled over ResNet50's operations (Module 1's offline profiling).
type Fig8Result struct{ Rows []Fig8Row }

// Fig8 runs the experiment.
func Fig8(o Options) Fig8Result {
	o = o.withDefaults()
	g := imgZoo.MustGet("resnet50-imagenet")
	// Pick representative ops: smallest and largest conv, a batch norm, a
	// relu, and the classifier dense.
	var convs []*model.Operation
	var bn, relu, dense *model.Operation
	for _, op := range g.Ops() {
		switch op.Type {
		case model.OpConv2D:
			convs = append(convs, op)
		case model.OpBatchNorm:
			if bn == nil {
				bn = op
			}
		case model.OpReLU:
			if relu == nil {
				relu = op
			}
		case model.OpDense:
			dense = op
		}
	}
	// Equal weight counts order by op name, so the pick never rests on the
	// sort algorithm.
	slices.SortFunc(convs, func(a, b *model.Operation) int {
		return cmp.Or(cmp.Compare(a.WeightCount(), b.WeightCount()), cmp.Compare(a.Name, b.Name))
	})
	small, large := convs[0], convs[len(convs)-1]

	var res Fig8Result
	add := func(k metaop.Kind, target string, c time.Duration) {
		res.Rows = append(res.Rows, Fig8Row{k, target, c})
	}
	add(metaop.KindReplace, "conv "+small.Shape.String(), o.Profile.ReplaceCost(small))
	add(metaop.KindReplace, "conv "+large.Shape.String(), o.Profile.ReplaceCost(large))
	add(metaop.KindReplace, "dense "+dense.Shape.String(), o.Profile.ReplaceCost(dense))
	add(metaop.KindReshape, "conv small→large", o.Profile.ReshapeCost(small, large))
	add(metaop.KindReshape, "conv large→small", o.Profile.ReshapeCost(large, small))
	add(metaop.KindReshape, "relu (weight-free)", o.Profile.ReshapeCost(relu, relu))
	add(metaop.KindAdd, "conv "+small.Shape.String(), o.Profile.AddCost(small))
	add(metaop.KindAdd, "conv "+large.Shape.String(), o.Profile.AddCost(large))
	add(metaop.KindAdd, "dense "+dense.Shape.String(), o.Profile.AddCost(dense))
	add(metaop.KindAdd, "batchnorm", o.Profile.AddCost(bn))
	add(metaop.KindAdd, "relu", o.Profile.AddCost(relu))
	add(metaop.KindReduce, "any op", o.Profile.ReduceCost(large))
	add(metaop.KindEdge, "per edge", o.Profile.EdgeCost(1))
	return res
}

// Render prints the Fig 8 table.
func (r Fig8Result) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, x := range r.Rows {
		rows = append(rows, []string{x.Kind.String(), x.Target, ms(x.Cost)})
	}
	return "Figure 8: execution time of varying meta-operators (ResNet50 profile)\n" +
		table([]string{"meta-op", "target", "cost(ms)"}, rows)
}
