package planner

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/zoo"
)

func benchPair(b *testing.B, algo Algorithm, src, dst string) {
	img := zoo.Imgclsmob()
	s, d := img.MustGet(src), img.MustGet(dst)
	pl := New(cost.Exact(cost.CPU()), algo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl.Plan(s, d) == nil {
			b.Fatal("nil plan")
		}
	}
}

func BenchmarkGroupSameFamily(b *testing.B) {
	benchPair(b, AlgoGroup, "resnet50-imagenet", "resnet101-imagenet")
}
func BenchmarkGroupCrossFamily(b *testing.B) {
	benchPair(b, AlgoGroup, "vgg16-imagenet", "densenet121-imagenet")
}

// benchCost times a warm-index cost pass: the work a plan-cache miss does
// for a pair whose models were seen before.
func benchCost(b *testing.B, src, dst string) {
	img := zoo.Imgclsmob()
	s, d := img.MustGet(src), img.MustGet(dst)
	pl := New(cost.Exact(cost.CPU()), AlgoGroup)
	pl.Cost(s, d) // warm the index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pl.Cost(s, d).True <= 0 {
			b.Fatal("free transformation")
		}
	}
}

func BenchmarkCostSameFamily(b *testing.B) {
	benchCost(b, "resnet50-imagenet", "resnet101-imagenet")
}
func BenchmarkCostCrossFamily(b *testing.B) {
	benchCost(b, "vgg16-imagenet", "densenet121-imagenet")
}
func BenchmarkHungarianSameFamily(b *testing.B) {
	benchPair(b, AlgoHungarian, "resnet50-imagenet", "resnet101-imagenet")
}
func BenchmarkBuildMatrix(b *testing.B) {
	img := zoo.Imgclsmob()
	s, d := img.MustGet("resnet50-imagenet"), img.MustGet("vgg16-imagenet")
	est := cost.Exact(cost.CPU())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if BuildMatrix(est, s, d) == nil {
			b.Fatal("nil matrix")
		}
	}
}
