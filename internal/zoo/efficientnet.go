package zoo

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// EfficientNet builds EfficientNet-B<variant> (Tan & Le): MBConv inverted
// bottlenecks with squeeze-and-excitation and Swish activations, with the
// compound width/depth scaling of the published family.
func EfficientNet(variant int, classes int, scope string) *model.Graph {
	if variant < 0 || variant > 7 {
		panic(fmt.Sprintf("zoo: EfficientNet variant b%d undefined", variant))
	}
	widthMult := math.Pow(1.1, float64(variant))
	depthMult := math.Pow(1.2, float64(variant))
	round := func(w int) int {
		return scaleWidth(int(float64(float64(w)*widthMult)+0.5), 1)
	}
	repeats := func(n int) int {
		return int(math.Ceil(float64(n) * depthMult))
	}

	b := model.NewBuilder(fmt.Sprintf("efficientnet-b%d", variant), "efficientnet", scope)
	b.Input(3)
	stem := round(32)
	b.Conv("stem.conv", 3, 3, stem, 2)
	b.BN("stem.bn", stem)
	b.Add(model.Operation{Name: "stem.swish", Type: model.OpSwish, Shape: model.Shape{OutChannels: stem}})

	// (expansion, output width, repeats, stride, kernel) per stage — the B0
	// recipe scaled by the compound coefficients.
	plan := []struct{ t, out, n, s, k int }{
		{1, 16, 1, 1, 3}, {6, 24, 2, 2, 3}, {6, 40, 2, 2, 5},
		{6, 80, 3, 2, 3}, {6, 112, 3, 1, 5}, {6, 192, 4, 2, 5}, {6, 320, 1, 1, 3},
	}
	in := stem
	for si, st := range plan {
		out := round(st.out)
		for r := 0; r < repeats(st.n); r++ {
			stride := 1
			if r == 0 {
				stride = st.s
			}
			tag := fmt.Sprintf("s%d.b%d", si+1, r+1)
			entry := b.Tail()[0]
			hidden := in * st.t
			if st.t != 1 {
				b.Conv(tag+".expand", 1, in, hidden, 1)
				b.BN(tag+".bn1", hidden)
				b.Add(model.Operation{Name: tag + ".swish1", Type: model.OpSwish, Shape: model.Shape{OutChannels: hidden}})
			}
			b.Add(model.Operation{Name: tag + ".dwconv", Type: model.OpDepthwiseConv2D,
				Shape: model.Shape{KernelH: st.k, KernelW: st.k, InChannels: hidden, OutChannels: hidden, Stride: stride}})
			b.BN(tag+".bn2", hidden)
			b.Add(model.Operation{Name: tag + ".swish2", Type: model.OpSwish, Shape: model.Shape{OutChannels: hidden}})
			// Squeeze-and-excitation at ratio 0.25 of the block input.
			se := max(in/4, 4)
			b.GlobalAvgPool(tag+".se.gap", hidden)
			b.Dense(tag+".se.fc1", hidden, se)
			b.Add(model.Operation{Name: tag + ".se.swish", Type: model.OpSwish, Shape: model.Shape{OutChannels: se}})
			b.Dense(tag+".se.fc2", se, hidden)
			b.Add(model.Operation{Name: tag + ".se.sigmoid", Type: model.OpSigmoid, Shape: model.Shape{OutChannels: hidden}})
			b.Conv(tag+".project", 1, hidden, out, 1)
			b.BN(tag+".bn3", out)
			if stride == 1 && in == out {
				b.AddMerge(tag+".add", out, b.Tail()[0], entry)
			}
			in = out
		}
	}
	head := round(1280)
	b.Conv("head.conv", 1, in, head, 1)
	b.BN("head.bn", head)
	b.Add(model.Operation{Name: "head.swish", Type: model.OpSwish, Shape: model.Shape{OutChannels: head}})
	b.GlobalAvgPool("gap", head)
	b.Add(model.Operation{Name: "drop", Type: model.OpDropout, Shape: model.Shape{OutChannels: head}})
	b.Dense("fc", head, classes)
	b.Add(model.Operation{Name: "softmax", Type: model.OpSoftmax, Shape: model.Shape{OutChannels: classes}})
	b.Output(classes)
	return b.Graph()
}
