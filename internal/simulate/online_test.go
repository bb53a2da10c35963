package simulate_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
)

func newOnline(t *testing.T, slots int, names ...string) *simulate.Online {
	t.Helper()
	return simulate.NewOnline(simulate.Config{
		Policy:            policy.Optimus{},
		Nodes:             1,
		ContainersPerNode: slots,
	}, testFunctions(t, names...))
}

func TestOnlineLifecycle(t *testing.T) {
	o := newOnline(t, 2, "resnet18-imagenet", "resnet34-imagenet")

	rec, err := o.Invoke("resnet18-imagenet", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != metrics.StartCold {
		t.Errorf("first invoke = %v", rec.Kind)
	}
	// Well after completion: warm.
	rec2, err := o.Invoke("resnet18-imagenet", rec.End+time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Kind != metrics.StartWarm {
		t.Errorf("second invoke = %v", rec2.Kind)
	}
	if o.Collector().Len() != 2 {
		t.Errorf("collector has %d records", o.Collector().Len())
	}
}

func TestOnlineWaitsWhenBusy(t *testing.T) {
	o := newOnline(t, 1, "resnet18-imagenet")
	rec, err := o.Invoke("resnet18-imagenet", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Second request arrives while the only container is busy: it must wait
	// until the first completes.
	rec2, err := o.Invoke("resnet18-imagenet", rec.End/2)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Wait == 0 {
		t.Error("second invoke should have waited")
	}
	if rec2.Start != rec.End {
		t.Errorf("second invoke started at %v, want %v", rec2.Start, rec.End)
	}
}

func TestOnlineClockMonotone(t *testing.T) {
	o := newOnline(t, 2, "resnet18-imagenet")
	if _, err := o.Invoke("resnet18-imagenet", time.Hour); err != nil {
		t.Fatal(err)
	}
	// A stale timestamp is clamped forward, never backwards.
	rec, err := o.Invoke("resnet18-imagenet", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Arrival < time.Hour {
		t.Errorf("clock went backwards: %v", rec.Arrival)
	}
}

func TestOnlineAddRemoveFunction(t *testing.T) {
	o := newOnline(t, 2, "resnet18-imagenet")
	if _, err := o.Invoke("vgg16-imagenet", 0); err == nil {
		t.Fatal("unknown function accepted")
	}
	fns := testFunctions(t, "vgg16-imagenet")
	o.AddFunction(fns[0])
	if _, err := o.Invoke("vgg16-imagenet", 0); err != nil {
		t.Fatal(err)
	}
	if got, ok := o.Function("vgg16-imagenet"); !ok || got != fns[0] {
		t.Error("Function lookup failed")
	}
	if len(o.Functions()) != 2 {
		t.Errorf("Functions = %v", o.Functions())
	}
	o.RemoveFunction("vgg16-imagenet")
	if _, err := o.Invoke("vgg16-imagenet", time.Minute); err == nil {
		t.Fatal("removed function still invocable")
	}
}

// TestFunctionsSorted is the regression test for the map-iteration-order
// leak optimus-lint's maprange checker found in Online.Functions: the
// listing feeds reports and API responses, so it must come back in sorted
// order no matter what order functions were registered in.
func TestFunctionsSorted(t *testing.T) {
	o := newOnline(t, 2, "resnet18-imagenet")
	model := testFunctions(t, "resnet18-imagenet")[0].Model
	for _, name := range []string{"zulu", "mike", "alpha", "quebec", "echo", "victor", "bravo", "hotel"} {
		o.AddFunction(&simulate.Function{Name: name, Model: model})
	}
	got := o.Functions()
	if len(got) != 9 {
		t.Fatalf("Functions() returned %d names, want 9", len(got))
	}
	if !sort.StringsAreSorted(got) {
		t.Errorf("Functions() not sorted: %v", got)
	}
}

// TestOnlineAgreesWithReplay is the first pair of the differential harness:
// fed the digest trace's timestamps, Online.Invoke must return exactly the
// records replay's Run collects, record for record, wherever no request
// waits. Crash faults are left out on purpose: Online retries a crashed
// request inline while replay schedules the crash as an event, so the two
// draw their randomness in different orders (see DESIGN.md "Online vs
// replay").
func TestOnlineAgreesWithReplay(t *testing.T) {
	gray := faults.Rates{Transform: 0.05, Load: 0.05, Hang: 0.1, Slow: 0.02, Flaky: 0.03, Bandwidth: 0.03}
	cases := []struct {
		name string
		cfg  simulate.Config
		// transforms pins how many requests start by transformation (the
		// Pagurus kind included), so each case keeps exercising repurposing.
		transforms int
	}{
		{name: "optimus", cfg: simulate.Config{Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 3}, transforms: 86},
		{name: "pagurus", cfg: simulate.Config{Policy: policy.Pagurus{}, Nodes: 2, ContainersPerNode: 3}, transforms: 67},
		{name: "gray-watchdog", cfg: simulate.Config{Policy: policy.Optimus{}, Nodes: 2, ContainersPerNode: 3, Seed: 5,
			Faults: gray, WatchdogFactor: 2}, transforms: 73},
		{name: "outage", cfg: simulate.Config{Policy: policy.Optimus{}, Nodes: 3, ContainersPerNode: 3, Seed: 5,
			Faults: faults.Rates{Outage: 0.01}}, transforms: 81},
	}
	tr := onlineTrace()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col, err := recording(simulate.New(tc.cfg, testFunctions(t, indexTestNames...))).Run(tr)
			if err != nil {
				t.Fatal(err)
			}
			want := col.Records()
			o, got, errs := invokeTrace(t, tc.cfg, tr)
			if len(want) != len(got) {
				t.Fatalf("replay recorded %d requests, Online served %d", len(want), len(got))
			}
			transforms := 0
			for i, r := range want {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if r.Wait != 0 {
					t.Fatalf("request %d waited %v: the configuration no longer isolates the no-wait case", i, r.Wait)
				}
				if got[i] != r {
					t.Fatalf("request %d: Online %+v, replay %+v", i, got[i], r)
				}
				if r.Kind == metrics.StartTransform {
					transforms++
				}
			}
			if transforms != tc.transforms {
				t.Errorf("%d transforms, want %d", transforms, tc.transforms)
			}
			var fs metrics.FaultStats
			o.ReadCollector(func(c *metrics.Collector) { fs = c.Faults })
			if fs != col.Faults {
				t.Errorf("fault tallies: Online %+v, replay %+v", fs, col.Faults)
			}
			if tc.cfg.Faults != (faults.Rates{}) && fs == (metrics.FaultStats{}) {
				t.Error("the fault rates injected nothing")
			}
		})
	}
}

// TestOnlineSetsLastDoneAtServe pins a deliberate divergence from replay:
// Online has no completion event, so a served container's LastDone is its
// service end from the moment it is served, while replay rewrites LastDone
// only when the completion fires.
func TestOnlineSetsLastDoneAtServe(t *testing.T) {
	o := newOnline(t, 1, "resnet18-imagenet")
	rec, err := o.Invoke("resnet18-imagenet", 0)
	if err != nil {
		t.Fatal(err)
	}
	c := o.Snapshot(0)[0].Containers[0]
	if !c.Busy(0) || c.LastDone != rec.End {
		t.Fatalf("container busy until %v, LastDone %v; want LastDone %v while busy", c.BusyUntil, c.LastDone, rec.End)
	}
}

// TestOnlineNeverFansOut pins a deliberate divergence from replay: Online
// never queues (a request that finds no free container waits eagerly), so
// the per-node queue threshold that starts a fan-out is never crossed, even
// with fan-out configured and a burst that makes replay fan out.
func TestOnlineNeverFansOut(t *testing.T) {
	fns, tr := fanoutBurst(t, 16)
	cfg := fanoutConfig(fanout.Config{Threshold: 2})
	replay, _ := runFanout(t, cfg, fns, tr)
	if replay.Fanout.Trees == 0 {
		t.Fatal("the burst no longer starts a fan-out in replay")
	}
	o := simulate.NewOnline(cfg, fns)
	for _, r := range tr.Requests {
		rec, err := o.Invoke(r.Function, r.At)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == metrics.StartFanout {
			t.Fatalf("Online served a fan-out replica: %+v", rec)
		}
	}
	o.ReadCollector(func(col *metrics.Collector) {
		if col.Fanout != (metrics.FanoutStats{}) {
			t.Errorf("Online recorded fan-out activity: %+v", col.Fanout)
		}
	})
}
