package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/simulate"
	"repro/internal/workload"
)

// StreamScaleBench is the constant-memory streaming section of the scale
// benchmark: the same synthetic cluster fed straight from lazy per-function
// generators (no trace slice, no record retention), at a request count an
// order of magnitude past what the materialized paths replay.
//
// Three properties are checked alongside the timings:
//
//   - fidelity: a streaming replay's summary is byte-identical to the
//     summary derived from a materialized replay's records at the baseline
//     size (same seed, same rates);
//   - constant memory: peak heap at the full streaming size stays within
//     1.5× of peak heap at the ~10×-smaller baseline size;
//   - windowed parallelism: on a placement whose bridge functions connect
//     every node group into one component, time-windowed optimistic replay
//     equals the serial streaming engine exactly.
type StreamScaleBench struct {
	// Requests is the full streaming replay size; BaseRequests the smaller
	// baseline the fidelity and peak-memory comparisons run at.
	Requests     int `json:"stream_requests"`
	BaseRequests int `json:"stream_base_requests"`

	WallMS       float64 `json:"stream_ms"`
	AllocsPerReq float64 `json:"stream_allocs_per_req"`

	// PeakHeapBaseMB and PeakHeapMB sample runtime heap use (HeapAlloc,
	// ~10 ms cadence) during the baseline and full streaming replays;
	// PeakRatio = full/baseline — near 1 when memory is trace-length-free.
	PeakHeapBaseMB float64 `json:"stream_peak_heap_base_mb"`
	PeakHeapMB     float64 `json:"stream_peak_heap_mb"`
	PeakRatio      float64 `json:"stream_peak_ratio"`

	// MatchesMaterialized: streaming summary == summary of the materialized
	// replay's records, at BaseRequests with the same seed.
	MatchesMaterialized bool `json:"stream_matches_materialized"`

	// Windowed replay on the bridge-connected placement (GOMAXPROCS
	// workers), timed against the serial streaming engine on the same input
	// (WindowedSerialMS).
	WindowedRequests      int     `json:"windowed_requests"`
	WindowedMS            float64 `json:"windowed_ms"`
	WindowedSerialMS      float64 `json:"windowed_serial_ms"`
	WindowedMatchesSerial bool    `json:"windowed_matches_serial"`
	Windows               int     `json:"windows"`
	ParallelWindows       int     `json:"parallel_windows"`
	ConflictWindows       int     `json:"conflict_windows"`
	MaxGroups             int     `json:"max_groups"`
}

// streamSpec stretches the baseline cluster's horizon so the streaming
// replay covers `requests` arrivals at the same offered load as the
// base-size run: constant memory means longer traces, not hotter clusters —
// scaling the rate instead would saturate the fixed cluster and grow the
// pending-request queue (real simulated backlog) linearly with the trace
// length. The extra 0.5% of horizon covers Poisson noise so the realized
// arrival count clears the nominal target.
func streamSpec(o Options, requests, base, groups int) scaleSpec {
	spec := scaleClusterSpec(o, base, groups)
	spec.horizon = time.Duration(float64(spec.horizon) * float64(requests) / float64(base) * 1.005)
	return spec
}

// bridgeSpec adds one low-rate bridge function between each pair of adjacent
// node groups, connecting the whole placement into a single component:
// windowed replay still parallelizes every window the bridges sit out.
func bridgeSpec(spec scaleSpec, groups int) scaleSpec {
	const nodesPerGroup = 8
	bridged := scaleSpec{
		cfg:     spec.cfg,
		fns:     append([]*simulate.Function(nil), spec.fns...),
		rates:   make(map[string]float64, len(spec.rates)+groups),
		horizon: spec.horizon,
	}
	placement := make(map[string][]int, len(spec.cfg.Placement)+groups)
	for name, nodes := range spec.cfg.Placement {
		placement[name] = nodes
	}
	for name, r := range spec.rates {
		bridged.rates[name] = r
	}
	for g := 0; g < groups-1; g++ {
		name := fmt.Sprintf("bridge-%02d", g)
		bridged.fns = append(bridged.fns, &simulate.Function{Name: name, Model: spec.fns[g%len(spec.fns)].Model})
		placement[name] = []int{g*nodesPerGroup + nodesPerGroup - 1, (g + 1) * nodesPerGroup}
		// ~2 expected arrivals per bridge over the horizon: rare enough that
		// most windows parallelize, frequent enough that some conflict.
		bridged.rates[name] = 2 / spec.horizon.Seconds()
	}
	bridged.cfg.Placement = placement
	return bridged
}

// peakHeapDuring runs fn while sampling HeapAlloc on a ~10 ms cadence,
// returning the peak in MB. The heap is GC'd down before the run so earlier
// benchmarks' garbage doesn't count against fn.
func peakHeapDuring(fn func()) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak := int64(ms.HeapAlloc)
	var peakAtomic atomic.Int64
	peakAtomic.Store(peak)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				if h := int64(s.HeapAlloc); h > peakAtomic.Load() {
					peakAtomic.Store(h)
				}
			}
		}
	}()
	fn()
	close(done)
	wg.Wait()
	runtime.ReadMemStats(&ms)
	if h := int64(ms.HeapAlloc); h > peakAtomic.Load() {
		peakAtomic.Store(h)
	}
	return float64(peakAtomic.Load()) / (1 << 20)
}

// streamRun replays the spec's generators through the streaming engine,
// returning the summary, wall-clock ms, and allocations per request.
func streamRun(spec scaleSpec, seed int64) (*metrics.Summary, float64, float64, int) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	sum, err := simulate.New(spec.cfg, spec.fns).RunStream(
		workload.StreamPoissonRates(spec.rates, spec.horizon, seed))
	if err != nil {
		panic(err)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := sum.Count()
	allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
	return sum, msF(wall), allocs, n
}

// StreamScale runs the streaming section of the scale benchmark. requests
// <= 0 defaults to ten million (500k in quick mode); the fidelity and
// peak-memory baseline runs at a tenth of that; groups and windows <= 0
// default to 8 and 32. Windowed replay runs on GOMAXPROCS workers. Unlike
// Scale it leaves the GC at its default: the point is the engine's true
// memory profile, not benchmark throughput.
func StreamScale(o Options, requests, groups, windows int) StreamScaleBench {
	o = o.withDefaults()
	if requests <= 0 {
		requests = 10_000_000
		if o.Quick {
			requests = 500_000
		}
	}
	if groups <= 0 {
		groups = 8
	}
	if windows <= 0 {
		windows = 32
	}
	base := requests / 10
	res := StreamScaleBench{Requests: requests, BaseRequests: base}

	// Fidelity at the baseline size: materialized indexed replay vs the
	// generator-fed streaming replay, summaries compared with ==.
	baseFx := scaleCluster(o, base, groups)
	col, err := simulate.New(baseFx.cfg, baseFx.fns).Run(baseFx.trace)
	if err != nil {
		panic(err)
	}
	want := *metrics.SummaryOf(col)
	col = nil
	baseSpec := scaleClusterSpec(o, base, groups)
	var baseSum *metrics.Summary
	res.PeakHeapBaseMB = peakHeapDuring(func() {
		baseSum, _, _, _ = streamRun(baseSpec, o.Seed)
	})
	res.MatchesMaterialized = *baseSum == want

	// The full-size streaming replay: the baseline's offered load over a
	// proportionally longer horizon — constant memory regardless of length.
	spec := streamSpec(o, requests, base, groups)
	res.PeakHeapMB = peakHeapDuring(func() {
		_, res.WallMS, res.AllocsPerReq, res.Requests = streamRun(spec, o.Seed)
	})
	if res.PeakHeapBaseMB > 0 {
		res.PeakRatio = res.PeakHeapMB / res.PeakHeapBaseMB
	}

	// Windowed optimistic parallelism on the bridge-connected placement.
	wSpec := bridgeSpec(scaleClusterSpec(o, base, groups), groups)
	t0 := time.Now()
	serial, err := simulate.New(wSpec.cfg, wSpec.fns).RunStream(
		workload.StreamPoissonRates(wSpec.rates, wSpec.horizon, o.Seed))
	if err != nil {
		panic(err)
	}
	res.WindowedSerialMS = msF(time.Since(t0))
	t0 = time.Now()
	win, rep, err := simulate.RunWindowed(wSpec.cfg, wSpec.fns,
		workload.StreamPoissonRates(wSpec.rates, wSpec.horizon, o.Seed),
		wSpec.horizon, windows, 0)
	if err != nil {
		panic(err)
	}
	res.WindowedMS = msF(time.Since(t0))
	res.WindowedRequests = win.Count()
	res.WindowedMatchesSerial = rep.Windowed() && *win == *serial
	res.Windows = rep.Windows
	res.ParallelWindows = rep.ParallelWindows
	res.ConflictWindows = rep.ConflictWindows
	res.MaxGroups = rep.MaxGroups
	return res
}

// Render prints the streaming section digest.
func (r StreamScaleBench) Render() string {
	return fmt.Sprintf(`  stream       %8.1f ms   %6.2f allocs/req   (%d requests, summary vs materialized %s)
  peak heap    %8.1f MB vs %.1f MB at %d requests (ratio %.2fx)
  windowed     %8.1f ms vs %.1f ms serial   (%d requests, %d/%d windows parallel, %d conflict-serial, max %d partitions, vs serial %s)`,
		r.WallMS, r.AllocsPerReq, r.Requests, okStr(r.MatchesMaterialized),
		r.PeakHeapMB, r.PeakHeapBaseMB, r.BaseRequests, r.PeakRatio,
		r.WindowedMS, r.WindowedSerialMS, r.WindowedRequests,
		r.ParallelWindows, r.Windows, r.ConflictWindows, r.MaxGroups,
		okStr(r.WindowedMatchesSerial))
}
