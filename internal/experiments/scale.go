package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// BenchScaleFile is the artifact `optimus-bench scale` emits; `make check`
// and CI validate its contents.
const BenchScaleFile = "BENCH_sim_scale.json"

// ScaleBench is the simulator hot-path scaling benchmark: one synthetic
// million-request trace on a cluster of disjoint node groups replayed two
// ways —
//
//   - serial/scan: the legacy O(nodes×containers) scanning router
//     (Config.RouteScan), the pre-index engine baseline;
//   - indexed: the incrementally-maintained routing index, serial replay.
//
// Wall times and speedups are machine-dependent (GOMAXPROCS and NumCPU
// record the machine); request counts, the equality checks and allocation
// counts are reproducible.
type ScaleBench struct {
	Seed       int64 `json:"seed"`
	Requests   int   `json:"requests"`
	Functions  int   `json:"functions"`
	Nodes      int   `json:"nodes"`
	Groups     int   `json:"groups"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	NumCPU     int   `json:"num_cpu"`

	SerialMS  float64 `json:"serial_ms"`
	IndexedMS float64 `json:"indexed_ms"`
	// SpeedupIndexed = serial/indexed.
	SpeedupIndexed float64 `json:"speedup_indexed"`

	SerialAllocsPerReq  float64 `json:"serial_allocs_per_req"`
	IndexedAllocsPerReq float64 `json:"indexed_allocs_per_req"`

	// IndexedMatchesScan: the indexed replay's records are byte-identical to
	// the scanning replay's.
	IndexedMatchesScan bool `json:"indexed_matches_scan"`

	// Stream, when present, is the constant-memory streaming replay section
	// (`optimus-bench scale -stream`); see StreamScale.
	Stream *StreamScaleBench `json:"stream,omitempty"`
}

// scaleFixture is the synthetic cluster: `groups` disjoint node groups of
// `nodesPerGroup` nodes each, with functions bound round-robin to groups.
type scaleFixture struct {
	cfg   simulate.Config
	fns   []*simulate.Function
	trace *workload.Trace
}

// scaleSpec is scaleFixture without the materialized trace: the rate table
// and horizon let streaming benchmarks feed the simulator straight from lazy
// generators, so trace size never touches memory.
type scaleSpec struct {
	cfg     simulate.Config
	fns     []*simulate.Function
	rates   map[string]float64
	horizon time.Duration
}

// scaleCluster builds the fixture: functions cycle the quick model catalog
// (so planning stays cheap and start kinds mix), and Poisson rates are tuned
// to land near the requested trace size.
func scaleCluster(o Options, requests, groups int) scaleFixture {
	spec := scaleClusterSpec(o, requests, groups)
	return scaleFixture{
		cfg:   spec.cfg,
		fns:   spec.fns,
		trace: workload.PoissonRates(spec.rates, spec.horizon, o.Seed),
	}
}

// scaleClusterSpec builds the cluster and rate table without materializing
// the trace.
func scaleClusterSpec(o Options, requests, groups int) scaleSpec {
	// Scan cost grows with the group's live container population, index cost
	// does not. The population here comes from keep-alive bloat — the
	// many-functions-few-invocations shape serverless ML deployments actually
	// have (§2): each group packs ~a hundred functions that each hold one or
	// two warm containers, so every scanning route walks hundreds of
	// containers while the index answers from counters.
	const nodesPerGroup = 8
	const containersPerNode = 32
	const fnsPerGroup = 128
	horizon := 30 * time.Minute

	base := DefaultFunctionSet(true)
	nfns := groups * fnsPerGroup
	fns := make([]*simulate.Function, nfns)
	names := make([]string, nfns)
	placement := make(map[string][]int, nfns)
	rates := make(map[string]float64, nfns)
	perFnRate := float64(requests) / horizon.Seconds() / float64(nfns)
	for i := range fns {
		name := fmt.Sprintf("fn-%03d", i)
		fns[i] = &simulate.Function{Name: name, Model: base[i%len(base)].Model}
		names[i] = name
		g := i % groups
		nodes := make([]int, nodesPerGroup)
		for j := range nodes {
			nodes[j] = g*nodesPerGroup + j
		}
		placement[name] = nodes
		// Skew rates across functions (heavy head, long tail) so warm reuse,
		// repurposing and cold starts all occur.
		rates[name] = perFnRate * (0.25 + 1.5*float64(i%8)/7)
	}
	return scaleSpec{
		cfg: simulate.Config{
			Nodes:             groups * nodesPerGroup,
			ContainersPerNode: containersPerNode,
			Profile:           o.Profile,
			Policy:            policy.Optimus{},
			Placement:         placement,
			Seed:              o.Seed,
		},
		fns:     fns,
		rates:   rates,
		horizon: horizon,
	}
}

// timedRun measures one replay's wall clock and per-request allocations.
func timedRun(requests int, run func() *metrics.Collector) (*metrics.Collector, float64, float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	col := run()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(requests)
	return col, msF(wall), allocs
}

// sameRecords reports byte-identity of two replays' record streams.
func sameRecords(a, b *metrics.Collector) bool {
	ra, rb := a.Records(), b.Records()
	if len(ra) != len(rb) || a.Faults != b.Faults {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// Scale runs the hot-path scaling benchmark. requests <= 0 defaults to one
// million (50k in quick mode); groups <= 0 defaults to 8.
func Scale(o Options, requests, groups int) ScaleBench {
	o = o.withDefaults()
	if requests <= 0 {
		requests = 1_000_000
		if o.Quick {
			requests = 50_000
		}
	}
	if groups <= 0 {
		groups = 8
	}
	fx := scaleCluster(o, requests, groups)
	res := ScaleBench{
		Seed:       o.Seed,
		Requests:   fx.trace.Len(),
		Functions:  len(fx.fns),
		Nodes:      fx.cfg.Nodes,
		Groups:     groups,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	// The two replays each retain a record slice of ~100 MB at the
	// million-request scale; with the default GOGC the collector heaps
	// trigger repeated full marks that tax whichever replay runs last. Relax
	// GC during the benchmark.
	defer debug.SetGCPercent(debug.SetGCPercent(1000))

	scanCfg := fx.cfg
	scanCfg.RouteScan = true
	serial, serialMS, serialAllocs := timedRun(res.Requests, func() *metrics.Collector {
		col, err := simulate.New(scanCfg, fx.fns).Run(fx.trace)
		if err != nil {
			panic(err)
		}
		return col
	})
	indexed, indexedMS, indexedAllocs := timedRun(res.Requests, func() *metrics.Collector {
		col, err := simulate.New(fx.cfg, fx.fns).Run(fx.trace)
		if err != nil {
			panic(err)
		}
		return col
	})
	res.IndexedMatchesScan = sameRecords(serial, indexed)
	res.SerialMS, res.SerialAllocsPerReq = serialMS, serialAllocs
	res.IndexedMS, res.IndexedAllocsPerReq = indexedMS, indexedAllocs
	if indexedMS > 0 {
		res.SpeedupIndexed = serialMS / indexedMS
	}
	return res
}

// WriteFile persists the artifact into dir, creating it if needed.
func (r ScaleBench) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("scale: creating %s: %w", dir, err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, BenchScaleFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("scale: writing %s: %w", path, err)
	}
	return nil
}

// okStr renders an equality check for the benchmark digests.
func okStr(b bool) string {
	if b {
		return "ok"
	}
	return "MISMATCH"
}

// Render prints the benchmark digest.
func (r ScaleBench) Render() string {
	out := fmt.Sprintf(`Simulator scale benchmark (seed %d)
%d requests, %d functions, %d nodes in %d groups (GOMAXPROCS %d, %d CPUs)
  serial/scan  %8.1f ms   %6.1f allocs/req
  indexed      %8.1f ms   %6.1f allocs/req   (%.2fx vs scan, records %s)`,
		r.Seed, r.Requests, r.Functions, r.Nodes, r.Groups, r.GOMAXPROCS, r.NumCPU,
		r.SerialMS, r.SerialAllocsPerReq,
		r.IndexedMS, r.IndexedAllocsPerReq, r.SpeedupIndexed, okStr(r.IndexedMatchesScan))
	if r.Stream != nil {
		out += "\n" + r.Stream.Render()
	}
	return out
}
