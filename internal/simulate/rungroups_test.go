package simulate_test

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
	"repro/internal/zoo"
)

// groupFixture is a fault-free replay whose placement splits the nodes into
// disjoint groups, so Run replays it on group workers.
type groupFixture struct {
	cfg    simulate.Config
	fns    []*simulate.Function
	trace  *workload.Trace
	groups int
}

// millionShapedFixture is replay-1m scaled down: functions cycling a few
// models over 8 disjoint groups of 2 nodes, under Poisson arrivals.
func millionShapedFixture() groupFixture {
	const groups, nodesPerGroup, nfns = 8, 2, 64
	img := zoo.Imgclsmob()
	models := []string{"resnet18-imagenet", "resnet34-imagenet", "vgg11-imagenet", "resnet50-imagenet"}
	fx := groupFixture{groups: groups}
	placement := make(map[string][]int, nfns)
	rates := make(map[string]float64, nfns)
	for i := 0; i < nfns; i++ {
		name := fmt.Sprintf("fn-%02d", i)
		fx.fns = append(fx.fns, &simulate.Function{Name: name, Model: img.MustGet(models[i%len(models)])})
		g := i % groups
		placement[name] = []int{g * nodesPerGroup, g*nodesPerGroup + 1}
		rates[name] = 0.05 * (0.25 + 1.5*float64(i%8)/7)
	}
	fx.trace = workload.PoissonRates(rates, 2*time.Hour, 5)
	fx.cfg = simulate.Config{
		Nodes: groups * nodesPerGroup, ContainersPerNode: 3,
		Policy: policy.Optimus{}, Placement: placement, Seed: 9,
	}
	return fx
}

// hashAzureFixture hash-places functions one node each, as the paper's
// baseline placement does, under an AzureLike trace logged at whole
// seconds, so requests of different groups arrive at one instant.
func hashAzureFixture(p simulate.Policy) groupFixture {
	const nodes = 6
	img := zoo.Imgclsmob()
	names := img.Names()[:24]
	fx := groupFixture{}
	for _, n := range names {
		fx.fns = append(fx.fns, &simulate.Function{Name: n, Model: img.MustGet(n)})
	}
	fx.cfg = simulate.Config{
		Nodes: nodes, ContainersPerNode: 3, Policy: p,
		Placement: simulate.HashPlacement(names, nodes), Seed: 4,
	}
	used := map[int]bool{}
	for _, ids := range fx.cfg.Placement {
		used[ids[0]] = true
	}
	fx.groups = len(used)
	fx.trace = workload.AzureLike(names, 12*time.Hour, 21)
	for i := range fx.trace.Requests {
		fx.trace.Requests[i].At = fx.trace.Requests[i].At.Truncate(time.Second)
	}
	return fx
}

// groupOf returns a function's group key in the fixtures: the smallest node
// of its candidate set. Each fixture's candidate sets are disjoint, so this
// orders groups exactly as their smallest node IDs do.
func groupOf(cfg simulate.Config, fn string) int {
	return slices.Min(cfg.Placement[fn])
}

// tieOrdered returns recs stably sorted by Start, equal Starts by group, and
// counts the equal-Start neighbours of different groups it had to order.
func tieOrdered(cfg simulate.Config, recs []metrics.Record) ([]metrics.Record, int) {
	out := slices.Clone(recs)
	slices.SortStableFunc(out, func(a, b metrics.Record) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(groupOf(cfg, a.Function), groupOf(cfg, b.Function)))
	})
	ties := 0
	for i := 1; i < len(out); i++ {
		if out[i].Start == out[i-1].Start && groupOf(cfg, out[i].Function) != groupOf(cfg, out[i-1].Function) {
			ties++
		}
	}
	return out, ties
}

// setProcs sets GOMAXPROCS for the test and restores it afterwards.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestRunGroupsMatchSerial replays fault-free group-split configs through
// Run and through the serial loop, five times in a row on the same
// simulators (each replay of the trace shifted past the previous one), and
// requires the same records (in Start order, equal Starts by group),
// plan-cache counters, clock, container state and demand EWMAs. Run uses
// GOMAXPROCS 4, then 1 (one worker replays the groups in turn); the third
// round replays serially on both simulators, so the next Run's workers start
// beside a parent event heap that has held events and must not share it. The
// last round streams the trace through RunStream in chunks, with a chunk
// boundary between two arrivals at one instant where the trace has them, and
// requires the summary of the serial loop's records.
func TestRunGroupsMatchSerial(t *testing.T) {
	setProcs(t, 4)
	cases := []struct {
		name string
		fx   groupFixture
		ties bool // the trace starts requests of different groups at one instant
	}{
		{"million-shaped", millionShapedFixture(), false},
		{"hash-azure-optimus", hashAzureFixture(policy.Optimus{}), true},
		{"hash-azure-pagurus", hashAzureFixture(policy.Pagurus{}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := tc.fx
			par := recording(simulate.New(fx.cfg, fx.fns))
			ser := simulate.New(fx.cfg, fx.fns)
			const stream = -1
			for round, procs := range []int{4, 1, 0, 4, stream} { // 0: serial on both
				tr := shifted(fx.trace, time.Duration(round)*(fx.trace.Duration+time.Hour))
				from := par.Collector().Len()
				if procs == stream {
					streamRound(t, fx, tc.ties, par, ser, tr)
				} else {
					runRound(t, fx, tc.ties, procs, par, ser, tr, from)
				}
				// Deduped counts lookups that waited on another worker's
				// computation in flight: the one counter that depends on timing.
				gc, wc := par.Env().Plans.Counters(), ser.Env().Plans.Counters()
				gc.Deduped, wc.Deduped = 0, 0
				if gc != wc {
					t.Errorf("round %d: plan cache counters %+v, serial %+v", round, gc, wc)
				}
				if par.Clock() != ser.Clock() {
					t.Errorf("round %d: clock %v, serial %v", round, par.Clock(), ser.Clock())
				}
				if par.TransformsVerified != ser.TransformsVerified || par.TransformsFailed != ser.TransformsFailed {
					t.Errorf("round %d: transform tallies differ", round)
				}
				compareClusters(t, par, ser)
				for _, fn := range fx.fns {
					g, gok := par.Env().MeanInterArrival(fn.Name)
					w, wok := ser.Env().MeanInterArrival(fn.Name)
					if g != w || gok != wok {
						t.Errorf("round %d: %s mean gap %v/%v, serial %v/%v", round, fn.Name, g, gok, w, wok)
					}
				}
			}
		})
	}
}

// runRound replays tr through Run (RunSerial when procs is 0) at GOMAXPROCS
// procs on par and through the serial loop on ser, and requires the same
// records, those past from, and aggregates.
func runRound(t *testing.T, fx groupFixture, ties bool, procs int, par, ser *simulate.Simulator, tr *workload.Trace, from int) {
	t.Helper()
	run := par.Run
	if procs == 0 {
		run = par.RunSerial
	} else {
		runtime.GOMAXPROCS(procs)
	}
	got, err := run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if g := par.ReplayGroups(); g != fx.groups {
		t.Fatalf("Run replays %d groups, want %d", g, fx.groups)
	}
	want, err := ser.RunSerial(tr)
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, tied := tieOrdered(fx.cfg, want.Records()[from:])
	if procs == 0 {
		wantRecs = want.Records()[from:] // both in serial order
	}
	if ties && tied == 0 {
		t.Fatal("the trace starts no requests of different groups at one instant: the tie rule goes untested")
	}
	gotRecs := got.Records()[from:]
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("%d records, serial %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if gotRecs[i] != wantRecs[i] {
			t.Fatalf("record %d: Run %+v, serial %+v", i, gotRecs[i], wantRecs[i])
		}
	}
	if got.MeanLatency() != want.MeanLatency() || got.Faults != want.Faults {
		t.Error("aggregates differ")
	}
}

// streamRound streams tr through RunStream on par at GOMAXPROCS 4, in chunks
// that cross at least three boundaries, and requires the summary of the
// serial loop's records on ser. A trace with arrivals of different groups at
// one instant must get a chunk boundary between two of them.
func streamRound(t *testing.T, fx groupFixture, ties bool, par, ser *simulate.Simulator, tr *workload.Trace) {
	t.Helper()
	if !chunkFor(t, tr) && ties {
		t.Fatal("no chunk boundary falls between two arrivals at one instant: the boundary rule goes untested")
	}
	runtime.GOMAXPROCS(4)
	if g := par.ReplayGroups(); g != fx.groups {
		t.Fatalf("RunStream replays %d groups, want %d", g, fx.groups)
	}
	from := ser.Collector().Len()
	got, err := par.RunStream(tr.Cursor())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ser.RunSerial(tr)
	if err != nil {
		t.Fatal(err)
	}
	var wantSum metrics.Summary
	for _, r := range want.Records()[from:] {
		wantSum.Observe(r)
	}
	if *got != wantSum {
		t.Fatalf("stream summary != serial summary: count %d vs %d, mean %v vs %v",
			got.Count(), wantSum.Count(), got.MeanLatency(), wantSum.MeanLatency())
	}
}

// shifted returns a copy of tr with every request d later.
func shifted(tr *workload.Trace, d time.Duration) *workload.Trace {
	out := &workload.Trace{Duration: tr.Duration + d, Requests: slices.Clone(tr.Requests)}
	for i := range out.Requests {
		out.Requests[i].At += d
	}
	return out
}

// compareClusters requires the same containers, in the same order, on every
// node of both simulators.
func compareClusters(t *testing.T, got, want *simulate.Simulator) {
	t.Helper()
	type state struct {
		id                  int
		fn                  string
		lastDone, busyUntil time.Duration
		memMB               int
	}
	snap := func(n *simulate.Node) []state {
		var out []state
		for _, c := range n.Containers {
			out = append(out, state{c.ID, c.Fn.Name, c.LastDone, c.BusyUntil, c.MemMB})
		}
		return out
	}
	for i, n := range got.Nodes() {
		if g, w := snap(n), snap(want.Nodes()[i]); !slices.Equal(g, w) {
			t.Fatalf("node %d containers:\n Run    %+v\n serial %+v", i, g, w)
		}
	}
}

// TestRunGroupsIgnoresGOMAXPROCS replays one group-split config at several
// GOMAXPROCS settings (at 1 one worker replays the groups in turn) and
// requires identical records, in order.
func TestRunGroupsIgnoresGOMAXPROCS(t *testing.T) {
	fx := hashAzureFixture(policy.Optimus{})
	var first []metrics.Record
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		col, err := recording(simulate.New(fx.cfg, fx.fns)).Run(fx.trace)
		if err != nil {
			t.Fatal(err)
		}
		recs := col.Records()
		if first == nil {
			first = recs
			continue
		}
		if !slices.Equal(recs, first) {
			t.Fatalf("GOMAXPROCS=%d: records differ from GOMAXPROCS=1", procs)
		}
	}
}

// TestRunGroupsSerialPath checks that a faulted config and a bounded plan
// cache keep Run on the serial loop, in its own record order.
func TestRunGroupsSerialPath(t *testing.T) {
	setProcs(t, 4)
	for _, tc := range []struct {
		name string
		mut  func(*simulate.Config)
	}{
		{"faults", func(c *simulate.Config) { c.Faults = faults.Rates{Crash: 0.01, Transform: 0.05} }},
		{"bounded-cache", func(c *simulate.Config) { c.PlanCacheMax = 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := hashAzureFixture(policy.Optimus{})
			tc.mut(&fx.cfg)
			par := simulate.New(fx.cfg, fx.fns)
			got, err := recording(par).Run(fx.trace)
			if err != nil {
				t.Fatal(err)
			}
			if g := par.ReplayGroups(); g != 0 {
				t.Fatalf("Run replays %d groups, want the serial path", g)
			}
			want, err := simulate.New(fx.cfg, fx.fns).RunSerial(fx.trace)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Records(), want.Records()) {
				t.Fatal("Run's records differ from the serial loop's")
			}
		})
	}
}

// TestWindowedSerialFallbacks checks that every coupling groupSerialReason
// names, a bounded plan cache and a one-node cluster keep RunStream on the
// serial loop, on a placement that otherwise streams as several groups, and
// that the chunked serial stream still equals the serial loop.
func TestWindowedSerialFallbacks(t *testing.T) {
	setProcs(t, 4)
	base := hashAzureFixture(policy.Optimus{})
	if g := simulate.New(base.cfg, base.fns).ReplayGroups(); g < 2 {
		t.Fatalf("the fixture streams as %d groups; the fallbacks go untested", g)
	}
	for _, tc := range []struct {
		name string
		mut  func(*simulate.Config)
	}{
		{"faults", func(c *simulate.Config) { c.Faults = faults.Rates{Crash: 0.1, Outage: 0.01} }},
		{"online profiling", func(c *simulate.Config) { c.OnlineProfiling = 0.2 }},
		{"fanout", func(c *simulate.Config) { c.Fanout = fanout.Config{Enabled: true} }},
		{"health", func(c *simulate.Config) { c.Health = health.Config{Enabled: true} }},
		{"bounded cache", func(c *simulate.Config) { c.PlanCacheMax = 4 }},
		{"single node", func(c *simulate.Config) { c.Nodes = 1; c.Placement = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := hashAzureFixture(policy.Optimus{})
			tc.mut(&fx.cfg)
			chunkFor(t, fx.trace)
			sim := simulate.New(fx.cfg, fx.fns)
			if g := sim.ReplayGroups(); g > 1 {
				t.Fatalf("RunStream replays %d groups, want the serial path", g)
			}
			got, err := sim.RunStream(fx.trace.Cursor())
			if err != nil {
				t.Fatal(err)
			}
			col, err := simulate.New(fx.cfg, fx.fns).RunSerial(fx.trace)
			if err != nil {
				t.Fatal(err)
			}
			if want := &col.Summary; *got != *want {
				t.Fatal("serial stream summary != serial loop summary")
			}
			if got.Count() == 0 {
				t.Error("the stream served no requests")
			}
		})
	}
}

// panicPolicy is Optimus, except that serving its victim function panics.
type panicPolicy struct{ victim string }

func (panicPolicy) Name() string { return "panic" }

func (p panicPolicy) Serve(env *simulate.Env, n *simulate.Node, fn *simulate.Function, now time.Duration) (simulate.Decision, bool) {
	if fn.Name == p.victim {
		panic("serving " + p.victim)
	}
	return policy.Optimus{}.Serve(env, n, fn, now)
}

// TestRunGroupsReraisesWorkerPanic requires a panic inside a group worker to
// surface from Run and from RunStream on the caller's goroutine as a
// *WorkerPanic holding the worker's value and the worker's stack down to the
// panicking Serve. A plain panic would mean the replay ran serially.
func TestRunGroupsReraisesWorkerPanic(t *testing.T) {
	setProcs(t, 4)
	fx := millionShapedFixture()
	fx.cfg.Policy = panicPolicy{victim: fx.fns[3].Name}
	for _, tc := range []struct {
		name string
		run  func(*simulate.Simulator)
	}{
		{"Run", func(s *simulate.Simulator) { _, _ = s.Run(fx.trace) }},
		{"RunStream", func(s *simulate.Simulator) { _, _ = s.RunStream(fx.trace.Cursor()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				wp, ok := r.(*simulate.WorkerPanic)
				if !ok {
					t.Fatalf("recovered %T %v, want a *simulate.WorkerPanic", r, r)
				}
				if wp.Value != "serving "+fx.fns[3].Name {
					t.Fatalf("worker panic value %v, want the policy's", wp.Value)
				}
				if !bytes.Contains(wp.Stack, []byte("panicPolicy.Serve")) {
					t.Fatalf("worker stack does not reach the panicking Serve:\n%s", wp.Stack)
				}
			}()
			tc.run(simulate.New(fx.cfg, fx.fns))
			t.Fatal("the replay returned despite a panicking worker")
		})
	}
}
