package metrics

import "time"

// Summary is the mergeable, constant-memory digest of a run: a log-linear
// latency sketch plus exact running aggregates. It is what streaming replay
// produces instead of a record slice — counts, sums, max, per-kind tallies
// and fault/fan-out counters are exact; only intermediate latency quantiles
// carry the digest's bounded relative error (≤ 2^-digestSubBits).
//
// Summary holds no pointers, so two summaries compare with == — the
// equality the streaming-vs-materialized and windowed-vs-serial oracles
// rely on — and partial summaries combine in O(buckets) via Merge.
type Summary struct {
	// Latency sketches the end-to-end latency distribution (exact count,
	// total and max; bounded-error intermediate quantiles).
	Latency DurationDigest
	// Wait..Compute are the exact sums of the per-request breakdown.
	Wait, Init, Load, Compute time.Duration
	// Retries is the exact sum of per-request re-dispatch counts.
	Retries int
	// Kinds counts records per start kind.
	Kinds [startKindCount]int
	// Faults and Fanout carry the run's injected-failure and fan-out-tree
	// tallies (folded in by the replay engine, not per record).
	Faults FaultStats
	// Fanout carries the run's fan-out tree tallies.
	Fanout FanoutStats
}

// Observe folds one record into the summary.
func (s *Summary) Observe(r Record) {
	s.Latency.Observe(r.Latency())
	s.Wait += r.Wait
	s.Init += r.Init
	s.Load += r.Load
	s.Compute += r.Compute
	s.Retries += r.Retries
	if int(r.Kind) < int(startKindCount) {
		s.Kinds[r.Kind]++
	}
}

// Merge folds another summary into s: all counters add, the latency sketches
// merge cell-wise, and the fault/fan-out tallies merge by their own rules.
// Merging partial summaries equals summarizing the concatenated record stream.
func (s *Summary) Merge(o *Summary) {
	s.Latency.Merge(&o.Latency)
	s.Wait += o.Wait
	s.Init += o.Init
	s.Load += o.Load
	s.Compute += o.Compute
	s.Retries += o.Retries
	for i, n := range o.Kinds {
		s.Kinds[i] += n
	}
	s.Faults.Merge(o.Faults)
	s.Fanout.Merge(o.Fanout)
}

// Count returns the exact number of summarized records.
func (s *Summary) Count() int { return s.Latency.Count() }

// MeanLatency returns the exact mean end-to-end latency.
func (s *Summary) MeanLatency() time.Duration { return s.Latency.Mean() }

// Percentile returns the p-th latency percentile from the sketch (p in
// [0,100]): within 2^-digestSubBits of the exact nearest-rank value, and
// exact at p=100 (the max is tracked exactly).
func (s *Summary) Percentile(p float64) time.Duration { return s.Latency.Percentile(p) }

// KindCounts tallies records per start kind (exact).
func (s *Summary) KindCounts() map[StartKind]int {
	out := make(map[StartKind]int, int(startKindCount))
	for k, n := range s.Kinds {
		if n > 0 {
			out[StartKind(k)] = n
		}
	}
	return out
}

// KindFractions returns each start kind's share of requests (exact).
func (s *Summary) KindFractions() map[StartKind]float64 {
	out := make(map[StartKind]float64, int(startKindCount))
	n := s.Count()
	if n == 0 {
		return out
	}
	for k, c := range s.Kinds {
		if c > 0 {
			out[StartKind(k)] = float64(c) / float64(n)
		}
	}
	return out
}

// HitRatio is the warm-path share of served requests — warm + transform +
// hedge + fanout — the soak experiment's availability-style figure, exact.
func (s *Summary) HitRatio() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	hits := s.Kinds[StartWarm] + s.Kinds[StartTransform] + s.Kinds[StartHedge] + s.Kinds[StartFanout]
	return float64(hits) / float64(n)
}

// MeanBreakdown averages the per-request latency decomposition (exact).
func (s *Summary) MeanBreakdown() Breakdown {
	n := time.Duration(s.Count())
	if n == 0 {
		return Breakdown{}
	}
	return Breakdown{s.Wait / n, s.Init / n, s.Load / n, s.Compute / n}
}

// SummaryOf summarizes a materialized collector: fold every record, then
// carry over the fault and fan-out tallies. A streaming replay of the same
// trace must produce a == summary — the sketch-fidelity oracle.
func SummaryOf(c *Collector) *Summary {
	s := &Summary{}
	for _, r := range c.Records() {
		s.Observe(r)
	}
	s.Faults.Merge(c.Faults)
	s.Fanout.Merge(c.Fanout)
	return s
}

// Merge folds another run's fault tallies into f (all fields are counters,
// so every field adds).
func (f *FaultStats) Merge(o FaultStats) {
	f.TransformFallbacks += o.TransformFallbacks
	f.LoadRetries += o.LoadRetries
	f.Crashes += o.Crashes
	f.Outages += o.Outages
	f.Retries += o.Retries
	f.Dropped += o.Dropped
	f.Hangs += o.Hangs
	f.WatchdogCancels += o.WatchdogCancels
	f.BreakerShortCircuits += o.BreakerShortCircuits
	f.SlowWindows += o.SlowWindows
	f.FlakyWindows += o.FlakyWindows
	f.FlakyFallbacks += o.FlakyFallbacks
	f.BandwidthWindows += o.BandwidthWindows
	f.HedgedTransforms += o.HedgedTransforms
	f.HedgeWins += o.HedgeWins
	f.BackoffRetries += o.BackoffRetries
}

// StreamInto diverts every subsequent Add into the summary: the collector
// retains no records, keeping replay memory independent of trace length.
// Reads that need the record slice (Records, Percentile, PerFunction) see an
// empty collector while streaming; the summary is the source of truth.
func (c *Collector) StreamInto(sum *Summary) { c.stream = sum }

// Streaming reports whether Adds are being diverted into a summary.
func (c *Collector) Streaming() bool { return c.stream != nil }
