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
	// StartFanout reused a replica warmed ahead of demand by fan-out (a
	// burst triggered one wave of donations from the function's warm seeds
	// and this request was the replica's first service).
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

// FanoutStats tallies fan-out activity over a run: how many fan-outs ran,
// how fast they warmed their target replica count, and every resilience
// event along the way (package fanout describes the model).
type FanoutStats struct {
	// Trees counts fan-outs started; TreesCompleted counts those that
	// reached their target warm-replica count within the run.
	Trees, TreesCompleted int
	// Recipients counts child transforms completed, including replacements
	// rebuilt after a quarantine or cancellation.
	Recipients int
	// DonorCrashes counts seeds that died midway through streaming weights
	// to a child; Reparents counts orphaned in-flight children re-assigned
	// to another seed (or parked for one) afterwards.
	DonorCrashes, Reparents int
	// CorruptOutputs counts children that completed with a corrupt model;
	// Quarantined counts those the edge-balance check cut at completion.
	CorruptOutputs, Quarantined int
	// WaveCancels counts children cancelled by the watchdog's donation
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

// Merge folds another run's (or fan-out's) tallies into f: counters add,
// while TimeToWarm keeps the maximum — the slowest warm-up is the figure of
// merit.
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
	if o.TimeToWarm > f.TimeToWarm {
		f.TimeToWarm = o.TimeToWarm
	}
}

// Collector accumulates a run's request measurements: a Summary of every
// request (exact counts, per-kind tallies, breakdown sums, faults and fan-out
// tallies), an exact latency column, so every percentile it reports is exact,
// and the records themselves only when KeepRecords is set. Replay leaves
// KeepRecords off, so a million-request run holds 8 bytes per request
// instead of a Record each; Online turns it on for checkpoints.
// Collector is not safe for concurrent use; callers that share one across
// goroutines (the gateway) must serialize access themselves.
type Collector struct {
	Summary
	// KeepRecords makes Add retain every record for Records, PerFunction and
	// checkpoints. The Summary and the latency column are kept either way.
	KeepRecords bool

	records []Record
	// lat is the latency column: lat[:sorted] ascending, lat[sorted:] in Add
	// order until a percentile read sorts that tail and merges it in, so
	// repeated reads between Adds cost O(1) and a read after new Adds sorts
	// only the new latencies.
	lat    []time.Duration
	sorted int
}

// Add folds a record into the summary and the latency column, and retains it
// when KeepRecords is set.
func (c *Collector) Add(r Record) {
	c.Observe(r)
	c.lat = append(c.lat, r.Latency())
	if c.KeepRecords {
		c.records = append(c.records, r)
	}
}

// Merge folds the collectors os into c: summaries add and latency columns
// concatenate. When c keeps records, the others' records are appended merged
// by Start, equal Starts in argument order; each one's records must already
// be in Start order.
func (c *Collector) Merge(os ...*Collector) {
	heads := make([][]Record, 0, len(os))
	lats, recs := 0, 0
	for _, o := range os {
		lats, recs = lats+len(o.lat), recs+len(o.records)
	}
	c.lat = slices.Grow(c.lat, lats)
	if c.KeepRecords {
		c.records = slices.Grow(c.records, recs)
	}
	for _, o := range os {
		c.Summary.Merge(&o.Summary)
		c.lat = append(c.lat, o.lat...)
		if len(o.records) > 0 && c.KeepRecords {
			heads = append(heads, o.records)
		}
	}
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if heads[i][0].Start < heads[best][0].Start {
				best = i
			}
		}
		// Copy the run of records best holds before any other head's next
		// one: it stops at the others' earliest Start, before it when an
		// earlier argument holds that Start, after it otherwise.
		limit, earlierAtLimit := time.Duration(math.MaxInt64), false
		for i, h := range heads {
			if i != best && h[0].Start < limit {
				limit, earlierAtLimit = h[0].Start, i < best
			}
		}
		recs := heads[best]
		n := 1
		for n < len(recs) && (recs[n].Start < limit || recs[n].Start == limit && !earlierAtLimit) {
			n++
		}
		c.records = append(c.records, recs[:n]...)
		if heads[best] = recs[n:]; len(heads[best]) == 0 {
			heads = slices.Delete(heads, best, best+1)
		}
	}
}

// Reset empties the collector, keeping KeepRecords and the capacity of its
// record and latency buffers for the requests that follow.
func (c *Collector) Reset() {
	*c = Collector{KeepRecords: c.KeepRecords, records: c.records[:0], lat: c.lat[:0]}
}

// Len returns the number of requests collected.
func (c *Collector) Len() int { return c.Count() }

// Records returns the retained records (backing store; do not mutate):
// empty unless KeepRecords was set while they were added.
func (c *Collector) Records() []Record { return c.records }

// RestoreFrom replaces the collector's contents with a checkpointed snapshot:
// every record is added again (the caller's slice is not retained), then the
// fault tallies are overwritten. KeepRecords and the fan-out tallies stay.
func (c *Collector) RestoreFrom(records []Record, faults FaultStats) {
	*c = Collector{KeepRecords: c.KeepRecords, Summary: Summary{Fanout: c.Fanout}}
	for _, r := range records {
		c.Add(r)
	}
	c.Faults = faults
}

// sortedLatencies returns the ascending latency column. Latencies added
// since the last call are sorted on their own, then merged in from the back.
func (c *Collector) sortedLatencies() []time.Duration {
	m, n := c.sorted, len(c.lat)
	if m == n {
		return c.lat
	}
	c.sorted = n
	slices.Sort(c.lat[m:])
	if m == 0 {
		return c.lat
	}
	fresh := slices.Clone(c.lat[m:])
	i, j := m-1, len(fresh)-1
	for w := n - 1; j >= 0; w-- {
		if i >= 0 && c.lat[i] > fresh[j] {
			c.lat[w] = c.lat[i]
			i--
		} else {
			c.lat[w] = fresh[j]
			j--
		}
	}
	return c.lat
}

// Percentile returns the exact p-th latency percentile (p in [0,100]).
// Repeated calls between Adds reuse the sorted column.
func (c *Collector) Percentile(p float64) time.Duration {
	if len(c.lat) == 0 {
		return 0
	}
	return PercentileSorted(c.sortedLatencies(), p)
}

// Percentiles returns the exact latency percentiles for each p in ps.
func (c *Collector) Percentiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = c.Percentile(p)
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

// Quick returns the stats-endpoint summary from the running aggregates:
// allocation-free while the sorted column is valid; after new Adds, one sort
// and merge of just the new latencies.
func (c *Collector) Quick() QuickStats {
	q := QuickStats{Requests: c.Len(), Mean: c.MeanLatency(), P50: c.Percentile(50), P99: c.Percentile(99)}
	for k, n := range c.Kinds {
		if n > 0 {
			// Divide per kind (not multiply by a shared reciprocal) so the
			// values match KindFractions bit-for-bit.
			q.Fractions[k] = float64(n) / float64(q.Requests)
		}
	}
	return q
}

// Breakdown is an averaged latency decomposition.
type Breakdown struct {
	Wait, Init, Load, Compute time.Duration
}

// Total sums the breakdown.
func (b Breakdown) Total() time.Duration { return b.Wait + b.Init + b.Load + b.Compute }

// PerFunction splits the retained records by function name (empty unless
// KeepRecords was set).
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
		num += float64(da * db)
		va += float64(da * da)
		vb += float64(db * db)
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
	for _, d := range c.lat {
		h.Observe(d)
	}
	return h
}
