package simulate_test

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
	"repro/internal/zoo"
)

func TestMemoryFootprintModel(t *testing.T) {
	p := cost.CPU()
	img := zoo.Imgclsmob()
	small := p.MemoryMB(img.MustGet("squeezenet-v1.1-imagenet"))
	big := p.MemoryMB(img.MustGet("vgg16-imagenet"))
	if small <= p.RuntimeMemMB {
		t.Errorf("small model footprint %d should exceed the runtime base %d", small, p.RuntimeMemMB)
	}
	if big <= small {
		t.Errorf("vgg16 footprint %d should exceed squeezenet %d", big, small)
	}
	// VGG16 = 528 MB of weights → ≈ 400 + 2×528 ≈ 1456 MB.
	if big < 1200 || big > 1800 {
		t.Errorf("vgg16 footprint = %d MB, want ≈ 1456", big)
	}
}

func TestHomogeneousMemoryBoundsContainers(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet")
	// 3 GB node, 1.5 GB uniform grants → at most 2 containers despite 8 slots.
	tr := &workload.Trace{
		Duration: time.Hour,
		Requests: []workload.Request{
			{Function: "resnet18-imagenet", At: 0},
			{Function: "resnet34-imagenet", At: time.Millisecond},
			{Function: "resnet50-imagenet", At: 2 * time.Millisecond},
		},
	}
	sim := simulate.New(simulate.Config{
		Policy:            policy.OpenWhisk{},
		Nodes:             1,
		ContainersPerNode: 8,
		NodeMemoryMB:      3000,
		ContainerMemoryMB: 1500,
	}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 3 {
		t.Fatalf("served %d", col.Len())
	}
	// The third request must have waited: only two containers fit and both
	// are busy at its arrival.
	if col.Records()[2].Wait == 0 {
		t.Error("memory bound not enforced: third request did not queue")
	}
	for _, c := range sim.Nodes()[0].Containers {
		if c.MemMB != 1500 {
			t.Errorf("homogeneous grant = %d, want 1500", c.MemMB)
		}
	}
	if used := sim.Nodes()[0].UsedMB(); used > 3000 {
		t.Errorf("node over-committed: %d MB", used)
	}
}

func TestFineGrainedPacksMore(t *testing.T) {
	names := []string{
		"squeezenet-v1.1-imagenet", "mobilenet-w0.25-imagenet",
		"shufflenetv2-w0.5-imagenet", "mobilenetv2-w0.5-imagenet",
	}
	fns := testFunctions(t, names...)
	reqs := make([]workload.Request, len(names))
	for i, n := range names {
		reqs[i] = workload.Request{Function: n, At: time.Duration(i) * time.Millisecond}
	}
	tr := &workload.Trace{Duration: time.Hour, Requests: reqs}

	run := func(containerMB int) int {
		sim := simulate.New(simulate.Config{
			Policy:            policy.OpenWhisk{},
			Nodes:             1,
			ContainersPerNode: 16,
			NodeMemoryMB:      2000,
			ContainerMemoryMB: containerMB,
		}, fns)
		if _, err := sim.Run(tr); err != nil {
			t.Fatal(err)
		}
		return len(sim.Nodes()[0].Containers)
	}
	homog := run(1000) // 2 × 1000 MB fit
	fine := run(0)     // model-sized: all four small models fit
	if homog >= fine {
		t.Errorf("fine-grained packed %d containers, homogeneous %d — expected more", fine, homog)
	}
	if fine != len(names) {
		t.Errorf("fine-grained should fit all %d small models, got %d", len(names), fine)
	}
}

func TestFineGrainedResizeOnTransform(t *testing.T) {
	fns := testFunctions(t, "vgg16-imagenet", "squeezenet-v1.1-imagenet")
	tr := &workload.Trace{
		Duration: time.Hour,
		Requests: []workload.Request{
			{Function: "vgg16-imagenet", At: 0},
			// Repurpose vgg16's big container for the small model.
			{Function: "squeezenet-v1.1-imagenet", At: 6 * time.Minute},
		},
	}
	sim := simulate.New(simulate.Config{
		Policy:            policy.Optimus{},
		Nodes:             1,
		ContainersPerNode: 1,
		NodeMemoryMB:      4000,
	}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Records()[1].Kind; got != metrics.StartTransform {
		t.Fatalf("second request kind = %v", got)
	}
	c := sim.Nodes()[0].Containers[0]
	want := cost.CPU().MemoryMB(fns[1].Model)
	if c.MemMB != want {
		t.Errorf("fine-grained transform did not resize: %d MB, want %d", c.MemMB, want)
	}
}

func TestDonorMustFitDestination(t *testing.T) {
	// A small fine-grained container cannot be repurposed for a big model.
	fns := testFunctions(t, "squeezenet-v1.1-imagenet", "vgg16-imagenet")
	tr := &workload.Trace{
		Duration: time.Hour,
		Requests: []workload.Request{
			{Function: "squeezenet-v1.1-imagenet", At: 0},
			{Function: "vgg16-imagenet", At: 6 * time.Minute},
		},
	}
	sim := simulate.New(simulate.Config{
		Policy:            policy.Optimus{},
		Nodes:             1,
		ContainersPerNode: 4,
		NodeMemoryMB:      8000,
	}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Records()[1].Kind; got != metrics.StartCold {
		t.Errorf("big model repurposed a too-small donor: kind %v", got)
	}
}
