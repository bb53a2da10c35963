// Package metrics collects and summarizes per-request measurements from the
// cluster simulator: latency breakdowns, start-type ratios, percentiles and
// the correlation statistics the load balancer consumes.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// StartKind classifies how a request's container was obtained, matching the
// three categories of the paper's Fig 14.
type StartKind uint8

const (
	// StartWarm reused a warm container already holding the right model.
	StartWarm StartKind = iota
	// StartTransform repurposed a warm-but-idle container of another
	// function (model transformation in Optimus, package-level container
	// sharing in Pagurus, op sharing in Tetris).
	StartTransform
	// StartCold created a container from scratch.
	StartCold
	// StartFallback repurposed a container but the transformation failed
	// mid-flight, so the model was loaded from scratch instead — the
	// safeguard's recovery path, charging the wasted partial transform.
	StartFallback
	// StartTimeout repurposed a container but the transformation hung and
	// the supervision watchdog cancelled it at its deadline (k× the planned
	// cost), charging the wasted window plus a from-scratch load.
	StartTimeout
	// StartBreaker repurposed a container whose (src→dst) transformation
	// pair had its circuit breaker open: the doomed transform attempt was
	// skipped entirely and the model loaded from scratch directly (still
	// saving sandbox/runtime init).
	StartBreaker
	// StartHedge repurposed a container whose transformation hung past the
	// hedge deadline: a backup transform was started from the next-best
	// donor and won, the hung primary was cancelled as the loser, and the
	// request paid the deadline window plus the backup transform.
	StartHedge
	// StartFanout reused a replica warmed ahead of demand by a fan-out
	// transform tree (a burst triggered multicast-style donor replication and
	// this request was the replica's first service).
	StartFanout
	startKindCount
)

// String names the start kind.
func (k StartKind) String() string {
	switch k {
	case StartWarm:
		return "warm"
	case StartTransform:
		return "transform"
	case StartCold:
		return "cold"
	case StartFallback:
		return "fallback"
	case StartTimeout:
		return "timeout"
	case StartBreaker:
		return "breaker"
	case StartHedge:
		return "hedge"
	case StartFanout:
		return "fanout"
	default:
		return fmt.Sprintf("startkind(%d)", uint8(k))
	}
}

// Record is one served request.
type Record struct {
	Function string
	Kind     StartKind
	// Arrival is the request's arrival offset in simulation time; Start is
	// when a container began serving it; End is completion.
	Arrival, Start, End time.Duration
	// Breakdown of the service latency.
	Wait, Init, Load, Compute time.Duration
	// Retries counts how many times the request was re-dispatched after a
	// container crash or node outage before this (successful) service.
	Retries int
}

// Latency is the user-visible service time: waiting plus initialization plus
// model acquisition plus inference (§8.3: "the sum of initialization time,
// computation time, and wait time").
func (r Record) Latency() time.Duration { return r.End - r.Arrival }

// FaultStats tallies injected failures and their recoveries over a run
// (package faults describes the failure model).
type FaultStats struct {
	// TransformFallbacks counts transformations that aborted mid-flight and
	// recovered through the safeguard path (StartFallback records).
	TransformFallbacks int
	// LoadRetries counts from-scratch model loads that failed partway and
	// restarted inside the same container.
	LoadRetries int
	// Crashes counts containers that died while serving a request.
	Crashes int
	// Outages counts node failures.
	Outages int
	// Retries counts request re-dispatches after a crash or outage.
	Retries int
	// Dropped counts requests abandoned after exhausting their retry
	// budget; dropped requests contribute no latency record.
	Dropped int
	// Hangs counts transformations that stalled instead of running to plan
	// (whether or not a watchdog was present to cancel them).
	Hangs int
	// WatchdogCancels counts hung transformations the watchdog cancelled at
	// their deadline and recovered through the safeguard path (StartTimeout
	// records).
	WatchdogCancels int
	// BreakerShortCircuits counts transform attempts skipped because the
	// (src→dst) pair's circuit breaker was open, routing the request straight
	// to a from-scratch load (StartBreaker records).
	BreakerShortCircuits int
	// SlowWindows counts gray slow-node degradation windows entered (the
	// node serves every request a latency multiplier slower).
	SlowWindows int
	// FlakyWindows counts flaky-donor windows entered.
	FlakyWindows int
	// FlakyFallbacks counts transformations aborted because their donor node
	// was inside a flaky window.
	FlakyFallbacks int
	// BandwidthWindows counts degraded transform-bandwidth windows entered.
	BandwidthWindows int
	// HedgedTransforms counts hung transformations for which a backup
	// transform was started from the next-best donor at the hedge deadline.
	HedgedTransforms int
	// HedgeWins counts hedged backups that beat the primary's own recovery
	// path (StartHedge records).
	HedgeWins int
	// BackoffRetries counts re-dispatches delayed by the deterministic
	// retry backoff instead of retrying immediately.
	BackoffRetries int
}

// Any reports whether any fault was recorded.
func (f FaultStats) Any() bool {
	return f != FaultStats{}
}

// FanoutStats tallies fan-out transform-tree activity over a run: how many
// trees ran, how fast they warmed their target replica count, and every
// resilience event along the way (package fanout describes the tree model).
type FanoutStats struct {
	// Trees counts fan-out trees started; TreesCompleted counts those that
	// reached their target warm-replica count within the run.
	Trees, TreesCompleted int
	// Recipients counts child transforms completed, including replacements
	// rebuilt after a quarantine or cancellation.
	Recipients int
	// Waves is the deepest tree wave reached across all trees (seeds are
	// wave 0).
	Waves int
	// DonorCrashes counts donors that died midway through streaming weights
	// to a child; Reparents counts orphaned in-flight children re-parented
	// onto the nearest healthy ancestor afterwards.
	DonorCrashes, Reparents int
	// CorruptOutputs counts children that completed with a corrupt model;
	// Quarantined counts members cut out of the tree by the wave-boundary
	// edge-balance verification (each poisoned member plus its descendants).
	CorruptOutputs, Quarantined int
	// WaveCancels counts children cancelled by the per-wave watchdog
	// deadline and diverted to the from-scratch fallback.
	WaveCancels int
	// LoadFallbacks counts children built by a from-scratch load instead of
	// a donation (open circuit breaker, no healthy donor, or wave cancel).
	LoadFallbacks int
	// TimeToWarm is the slowest completed tree's trigger-to-target-warm
	// duration (virtual time).
	TimeToWarm time.Duration
}

// Any reports whether any fan-out activity was recorded.
func (f FanoutStats) Any() bool {
	return f != FanoutStats{}
}

// Merge folds another run's (or tree's) tallies into f: counters add, while
// Waves and TimeToWarm keep the maximum — the deepest tree and the slowest
// warm-up are the figures of merit.
func (f *FanoutStats) Merge(o FanoutStats) {
	f.Trees += o.Trees
	f.TreesCompleted += o.TreesCompleted
	f.Recipients += o.Recipients
	f.DonorCrashes += o.DonorCrashes
	f.Reparents += o.Reparents
	f.CorruptOutputs += o.CorruptOutputs
	f.Quarantined += o.Quarantined
	f.WaveCancels += o.WaveCancels
	f.LoadFallbacks += o.LoadFallbacks
	if o.Waves > f.Waves {
		f.Waves = o.Waves
	}
	if o.TimeToWarm > f.TimeToWarm {
		f.TimeToWarm = o.TimeToWarm
	}
}

// Collector accumulates request records. It maintains running aggregates
// (latency sum, per-kind counts) and a cached sorted-latency view so that
// summary reads over million-record replays cost O(1) — or, after new Adds,
// a sort of just the new latencies merged into the view — instead of
// re-scanning and re-sorting per call.
// Collector is not safe for concurrent use; callers that share one across
// goroutines (the gateway) must serialize access themselves.
type Collector struct {
	records []Record
	// Faults tallies injected failures observed during the run.
	Faults FaultStats
	// Fanout tallies fan-out transform-tree activity observed during the run.
	Fanout FanoutStats

	// latSum and kinds are running aggregates maintained by Add/RestoreFrom.
	latSum time.Duration
	kinds  [startKindCount]int
	// sorted holds the ascending latencies of records[:len(sorted)]: Add
	// only appends records, so the view stays valid for that prefix until
	// RestoreFrom clears it.
	sorted []time.Duration
	// stream, when set by StreamInto, diverts Adds into a constant-memory
	// Summary instead of the record slice.
	stream *Summary
}

// Add appends a record (or, in streaming mode, folds it into the summary).
func (c *Collector) Add(r Record) {
	if c.stream != nil {
		c.stream.Observe(r)
		return
	}
	c.records = append(c.records, r)
	c.latSum += r.Latency()
	if int(r.Kind) < int(startKindCount) {
		c.kinds[r.Kind]++
	}
}

// Reserve grows the record store to hold n total records without further
// reallocation; replay engines call it with the trace length so million-
// request runs don't pay append-doubling copies. A no-op in streaming mode,
// which retains no records at all.
func (c *Collector) Reserve(n int) {
	if c.stream != nil || n <= cap(c.records) {
		return
	}
	grown := make([]Record, len(c.records), n)
	copy(grown, c.records)
	c.records = grown
}

// Len returns the number of records.
func (c *Collector) Len() int { return len(c.records) }

// Records returns the accumulated records (backing store; do not mutate).
func (c *Collector) Records() []Record { return c.records }

// RestoreFrom replaces the collector's contents with a checkpointed snapshot:
// the records are copied (the caller's slice is not retained), the fault
// tallies overwritten, and every cached aggregate rebuilt from the restored
// records.
func (c *Collector) RestoreFrom(records []Record, faults FaultStats) {
	c.records = append([]Record(nil), records...)
	c.Faults = faults
	c.latSum = 0
	c.kinds = [startKindCount]int{}
	for _, r := range c.records {
		c.latSum += r.Latency()
		if int(r.Kind) < int(startKindCount) {
			c.kinds[r.Kind]++
		}
	}
	c.sorted = nil
}

// MeanLatency returns the average end-to-end service time.
func (c *Collector) MeanLatency() time.Duration {
	if len(c.records) == 0 {
		return 0
	}
	return c.latSum / time.Duration(len(c.records))
}

// sortedLatencies returns the ascending latency view. Latencies added since
// the last call are sorted on their own, then merged in from the back.
func (c *Collector) sortedLatencies() []time.Duration {
	m, n := len(c.sorted), len(c.records)
	if m == n {
		return c.sorted
	}
	c.sorted = slices.Grow(c.sorted, n-m)[:n]
	for i, r := range c.records[m:] {
		c.sorted[m+i] = r.Latency()
	}
	slices.Sort(c.sorted[m:])
	if m == 0 {
		return c.sorted
	}
	fresh := slices.Clone(c.sorted[m:])
	i, j := m-1, len(fresh)-1
	for w := n - 1; j >= 0; w-- {
		if i >= 0 && c.sorted[i] > fresh[j] {
			c.sorted[w] = c.sorted[i]
			i--
		} else {
			c.sorted[w] = fresh[j]
			j--
		}
	}
	return c.sorted
}

// Percentile returns the p-th latency percentile (p in [0,100]). Repeated
// calls between Adds reuse the cached sorted view.
func (c *Collector) Percentile(p float64) time.Duration {
	if len(c.records) == 0 {
		return 0
	}
	return PercentileSorted(c.sortedLatencies(), p)
}

// Percentiles returns the latency percentiles for each p in ps, sharing a
// single sorted view across all of them.
func (c *Collector) Percentiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(c.records) == 0 {
		return out
	}
	sorted := c.sortedLatencies()
	for i, p := range ps {
		out[i] = PercentileSorted(sorted, p)
	}
	return out
}

// KindCounts tallies records per start kind.
func (c *Collector) KindCounts() map[StartKind]int {
	out := make(map[StartKind]int, int(startKindCount))
	for k, n := range c.kinds {
		if n > 0 {
			out[StartKind(k)] = n
		}
	}
	return out
}

// KindFractions returns each start kind's share of requests (Fig 14).
func (c *Collector) KindFractions() map[StartKind]float64 {
	out := make(map[StartKind]float64, int(startKindCount))
	if len(c.records) == 0 {
		return out
	}
	for k, n := range c.KindCounts() {
		out[k] = float64(n) / float64(len(c.records))
	}
	return out
}

// QuickStats is the value-typed summary behind the gateway's /api/stats hot
// path: request count, mean, the two headline percentiles, and every start
// kind's share in a fixed array indexed by StartKind. Building one performs
// no heap allocation once the collector's sorted-latency cache is warm —
// unlike the map-returning KindFractions plus per-percentile calls it
// replaces, which allocated on every stats read.
type QuickStats struct {
	Requests  int
	Mean      time.Duration
	P50, P99  time.Duration
	Fractions [startKindCount]float64
}

// Fraction returns kind's share of requests (0 for out-of-range kinds).
func (q QuickStats) Fraction(kind StartKind) float64 {
	if int(kind) >= len(q.Fractions) {
		return 0
	}
	return q.Fractions[kind]
}

// Quick returns the stats-endpoint summary in one pass over the cached
// aggregates: allocation-free while the sorted view is valid; after new
// Adds, one sort and merge of just the new latencies.
func (c *Collector) Quick() QuickStats {
	q := QuickStats{Requests: len(c.records), Mean: c.MeanLatency()}
	if len(c.records) == 0 {
		return q
	}
	sorted := c.sortedLatencies()
	q.P50 = PercentileSorted(sorted, 50)
	q.P99 = PercentileSorted(sorted, 99)
	total := float64(len(c.records))
	for k, n := range c.kinds {
		// Divide per kind (not multiply by a shared reciprocal) so the values
		// match KindFractions bit-for-bit.
		q.Fractions[k] = float64(n) / total
	}
	return q
}

// Breakdown is an averaged latency decomposition.
type Breakdown struct {
	Wait, Init, Load, Compute time.Duration
}

// Total sums the breakdown.
func (b Breakdown) Total() time.Duration { return b.Wait + b.Init + b.Load + b.Compute }

// MeanBreakdown averages the per-request latency decomposition.
func (c *Collector) MeanBreakdown() Breakdown {
	var b Breakdown
	if len(c.records) == 0 {
		return b
	}
	for _, r := range c.records {
		b.Wait += r.Wait
		b.Init += r.Init
		b.Load += r.Load
		b.Compute += r.Compute
	}
	n := time.Duration(len(c.records))
	return Breakdown{b.Wait / n, b.Init / n, b.Load / n, b.Compute / n}
}

// PerFunction splits the collector by function name.
func (c *Collector) PerFunction() map[string]*Collector {
	out := make(map[string]*Collector)
	for _, r := range c.records {
		f := out[r.Function]
		if f == nil {
			f = &Collector{}
			out[r.Function] = f
		}
		f.Add(r)
	}
	return out
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Corr returns the Pearson correlation coefficient of two equal-length
// series, the demand-dynamics complementarity measure K(A,B) of §5.1.
// It returns 0 when either series has zero variance or lengths mismatch.
func Corr(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var num, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		num += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return num / (math.Sqrt(va) * math.Sqrt(vb))
}

// DurationStats summarizes a duration sample.
type DurationStats struct {
	Count          int
	Min, Max, Mean time.Duration
}

// SummarizeDurations computes min/max/mean over a sample.
func SummarizeDurations(ds []time.Duration) DurationStats {
	st := DurationStats{Count: len(ds)}
	if len(ds) == 0 {
		return st
	}
	st.Min, st.Max = ds[0], ds[0]
	var sum time.Duration
	for _, d := range ds {
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		sum += d
	}
	st.Mean = sum / time.Duration(len(ds))
	return st
}

// DurationPercentile returns the p-th percentile (p in [0,100], nearest-rank)
// of the sample; the input slice is not modified. Zero for an empty sample.
// Collector.Percentile and the planning-time telemetry share this definition
// so /api/stats and BENCH_*.json percentiles are directly comparable.
func DurationPercentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	slices.Sort(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is the nearest-rank percentile over an already
// ascending-sorted, non-empty sample: DurationPercentile without its
// copy+sort, for callers holding a sorted view (Collector's cache, the
// hedger's window).
func PercentileSorted(sorted []time.Duration, p float64) time.Duration {
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Histogram buckets duration samples on a fixed linear grid, for latency
// distribution reporting (the CDF-style views behind Figs 12-13).
type Histogram struct {
	// Width is the bucket width; Buckets[i] counts samples in
	// [i·Width, (i+1)·Width); Overflow counts samples beyond the last bucket.
	Width    time.Duration
	Buckets  []int
	Overflow int
	count    int
}

// NewHistogram returns a histogram of n buckets of the given width.
func NewHistogram(width time.Duration, n int) *Histogram {
	if width <= 0 {
		width = time.Millisecond
	}
	if n <= 0 {
		n = 1
	}
	return &Histogram{Width: width, Buckets: make([]int, n)}
}

// Observe adds one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.count++
	if d < 0 {
		d = 0
	}
	i := int(d / h.Width)
	if i >= len(h.Buckets) {
		h.Overflow++
		return
	}
	h.Buckets[i] += 1
}

// Count returns the total number of observed samples.
func (h *Histogram) Count() int { return h.count }

// Quantile returns an upper bound for the q-th quantile (q in [0,1]),
// resolved to bucket granularity.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	seen := 0
	for i, c := range h.Buckets {
		seen += c
		if seen >= target {
			return time.Duration(i+1) * h.Width
		}
	}
	return time.Duration(len(h.Buckets)) * h.Width
}

// LatencyHistogram buckets the collector's request latencies.
func (c *Collector) LatencyHistogram(width time.Duration, n int) *Histogram {
	h := NewHistogram(width, n)
	for _, r := range c.records {
		h.Observe(r.Latency())
	}
	return h
}
