package simulate_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// chaosTrace is a shared medium-sized workload for the fault tests.
func chaosTrace(t *testing.T) ([]*simulate.Function, *workload.Trace) {
	t.Helper()
	names := []string{"resnet18-imagenet", "resnet34-imagenet", "resnet50-imagenet", "vgg16-imagenet"}
	return testFunctions(t, names...), workload.MixedPoisson(names, 12*time.Hour, 11)
}

func TestZeroRatesLeaveNoFaultTraces(t *testing.T) {
	fns, tr := chaosTrace(t)
	sim := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 1, ContainersPerNode: 2,
	}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Faults.Any() {
		t.Errorf("healthy run tallied faults: %+v", col.Faults)
	}
	for _, r := range col.Records() {
		if r.Kind == metrics.StartFallback {
			t.Fatal("healthy run produced a fallback start")
		}
		if r.Retries != 0 {
			t.Fatalf("healthy run recorded retries: %+v", r)
		}
	}
}

func TestTransformFaultFallsBack(t *testing.T) {
	fns, tr := chaosTrace(t)
	sim := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 1, ContainersPerNode: 2,
		Faults: faults.Rates{Transform: 1},
	}, fns)
	col, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != tr.Len() {
		t.Fatalf("served %d of %d", col.Len(), tr.Len())
	}
	fr := col.KindFractions()
	if fr[metrics.StartTransform] != 0 {
		t.Error("rate-1 transform faults left transform records")
	}
	if fr[metrics.StartFallback] == 0 {
		t.Fatal("no fallback records despite rate-1 transform faults")
	}
	if col.Faults.TransformFallbacks == 0 {
		t.Error("TransformFallbacks not tallied")
	}
	if col.Faults.TransformFallbacks != sim.TransformsFailed {
		t.Errorf("counter mismatch: FaultStats %d vs TransformsFailed %d",
			col.Faults.TransformFallbacks, sim.TransformsFailed)
	}
}

func TestLoadFaultSlowsColdStarts(t *testing.T) {
	fns, tr := chaosTrace(t)
	run := func(r float64) *metrics.Collector {
		sim := simulate.New(simulate.Config{
			Policy: policy.OpenWhisk{}, Nodes: 1, ContainersPerNode: 2,
			Faults: faults.Rates{Load: r},
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	healthy, faulty := run(0), run(1)
	if faulty.Faults.LoadRetries == 0 {
		t.Fatal("rate-1 load faults tallied no retries")
	}
	if faulty.MeanLatency() <= healthy.MeanLatency() {
		t.Errorf("load faults did not slow the run: %v vs %v",
			faulty.MeanLatency(), healthy.MeanLatency())
	}
	// Load faults degrade but never lose requests.
	if faulty.Len() != tr.Len() {
		t.Errorf("served %d of %d", faulty.Len(), tr.Len())
	}
}

func TestCrashRetriesBoundedAndRecorded(t *testing.T) {
	fns, tr := chaosTrace(t)
	sim := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2,
		Faults: faults.Rates{Crash: 0.2},
	}, fns)
	col, err := recording(sim).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Faults.Crashes == 0 || col.Faults.Retries == 0 {
		t.Fatalf("crash faults not exercised: %+v", col.Faults)
	}
	if col.Len()+col.Faults.Dropped != tr.Len() {
		t.Errorf("served %d + dropped %d != %d requests",
			col.Len(), col.Faults.Dropped, tr.Len())
	}
	retried := 0
	for _, r := range col.Records() {
		if r.Retries > 2 {
			t.Fatalf("record exceeded the retry budget: %+v", r)
		}
		if r.Retries > 0 {
			retried++
			if r.Wait == 0 && r.Start == r.Arrival {
				t.Errorf("retried request shows no wasted time: %+v", r)
			}
		}
	}
	if retried == 0 {
		t.Error("no record carries a retry count")
	}
}

func TestCrashWithoutBudgetDropsEverything(t *testing.T) {
	fns := testFunctions(t, "resnet18-imagenet")
	tr := workload.Poisson([]string{"resnet18-imagenet"}, 0.001, time.Hour, 5)
	sim := simulate.New(simulate.Config{
		Policy: policy.OpenWhisk{}, Nodes: 1, ContainersPerNode: 1,
		Faults:     faults.Rates{Crash: 1},
		MaxRetries: -1,
	}, fns)
	col, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 0 {
		t.Errorf("rate-1 crashes with no retries still served %d requests", col.Len())
	}
	if col.Faults.Dropped != tr.Len() {
		t.Errorf("dropped %d of %d", col.Faults.Dropped, tr.Len())
	}
}

func TestOutagesRerouteAndRecover(t *testing.T) {
	fns, tr := chaosTrace(t)
	sim := simulate.New(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2,
		Faults: faults.Rates{Outage: 0.02},
	}, fns)
	col, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if col.Faults.Outages == 0 {
		t.Fatal("no outages injected")
	}
	// Outages lose containers and delay requests but never lose requests:
	// crash faults are off, so nothing may be dropped.
	if col.Faults.Dropped != 0 {
		t.Errorf("outage-only run dropped %d requests", col.Faults.Dropped)
	}
	if col.Len() != tr.Len() {
		t.Errorf("served %d of %d", col.Len(), tr.Len())
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	fns, tr := chaosTrace(t)
	run := func() *metrics.Collector {
		sim := simulate.New(simulate.Config{
			Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 2,
			Seed:   9,
			Faults: faults.Rates{Transform: 0.3, Load: 0.2, Crash: 0.05, Outage: 0.01},
		}, fns)
		col, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	a, b := run(), run()
	if a.MeanLatency() != b.MeanLatency() || !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Errorf("fault runs diverged: %v/%+v vs %v/%+v",
			a.MeanLatency(), a.Faults, b.MeanLatency(), b.Faults)
	}
}

func TestOnlineTransformFaultFallsBack(t *testing.T) {
	o := simulate.NewOnline(simulate.Config{
		Policy: policy.Optimus{}, Nodes: 1, ContainersPerNode: 1,
		Faults: faults.Rates{Transform: 1},
	}, testFunctions(t, "resnet18-imagenet", "resnet34-imagenet"))
	if _, err := o.Invoke("resnet18-imagenet", 0); err != nil {
		t.Fatal(err)
	}
	// 2 min later the resnet18 container is idle past the threshold on a full
	// node: Optimus picks a transform, the injector aborts it mid-flight.
	rec, err := o.Invoke("resnet34-imagenet", 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != metrics.StartFallback {
		t.Fatalf("kind = %v, want fallback", rec.Kind)
	}
	var fallbacks int
	o.ReadCollector(func(col *metrics.Collector) { fallbacks = col.Faults.TransformFallbacks })
	if fallbacks != 1 {
		t.Errorf("TransformFallbacks = %d", fallbacks)
	}
}

func TestOnlineCrashExhaustsBudget(t *testing.T) {
	o := simulate.NewOnline(simulate.Config{
		Policy: policy.OpenWhisk{}, Nodes: 1, ContainersPerNode: 1,
		Faults:     faults.Rates{Crash: 1},
		MaxRetries: -1,
	}, testFunctions(t, "resnet18-imagenet"))
	_, err := o.Invoke("resnet18-imagenet", 0)
	if !errors.Is(err, simulate.ErrRequestDropped) {
		t.Fatalf("err = %v, want ErrRequestDropped", err)
	}
	var fs metrics.FaultStats
	o.ReadCollector(func(col *metrics.Collector) { fs = col.Faults })
	if fs.Dropped != 1 || fs.Crashes != 1 {
		t.Errorf("fault stats = %+v", fs)
	}
}

func TestOnlineOutageDelaysRequest(t *testing.T) {
	o := simulate.NewOnline(simulate.Config{
		Policy: policy.OpenWhisk{}, Nodes: 1, ContainersPerNode: 1,
		Faults:         faults.Rates{Outage: 1},
		OutageDuration: 5 * time.Second,
	}, testFunctions(t, "resnet18-imagenet"))
	rec, err := o.Invoke("resnet18-imagenet", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Wait < 5*time.Second {
		t.Errorf("request did not wait out the outage: wait %v", rec.Wait)
	}
	var outages int
	o.ReadCollector(func(col *metrics.Collector) { outages = col.Faults.Outages })
	if outages != 1 {
		t.Errorf("Outages = %d", outages)
	}
}
