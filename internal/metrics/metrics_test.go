package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func rec(fn string, kind StartKind, arrival, latency time.Duration) Record {
	return Record{
		Function: fn, Kind: kind,
		Arrival: arrival, Start: arrival, End: arrival + latency,
		Compute: latency,
	}
}

func TestStartKindString(t *testing.T) {
	if StartWarm.String() != "warm" || StartTransform.String() != "transform" || StartCold.String() != "cold" {
		t.Error("kind names wrong")
	}
	if StartFallback.String() != "fallback" {
		t.Error("fallback kind name wrong")
	}
	if StartKind(9).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestFaultStats(t *testing.T) {
	var c Collector
	if c.Faults.Any() {
		t.Error("fresh collector reports faults")
	}
	c.Faults.Crashes++
	c.Faults.Retries++
	if !c.Faults.Any() {
		t.Error("recorded faults not reported")
	}
	c.Add(rec("f", StartFallback, 0, time.Second))
	if c.KindFractions()[StartFallback] != 1 {
		t.Errorf("fallback fraction = %v", c.KindFractions())
	}
}

func TestMeanLatency(t *testing.T) {
	var c Collector
	if c.MeanLatency() != 0 {
		t.Error("empty collector mean should be 0")
	}
	c.Add(rec("a", StartWarm, 0, 100*time.Millisecond))
	c.Add(rec("a", StartCold, time.Second, 300*time.Millisecond))
	if got := c.MeanLatency(); got != 200*time.Millisecond {
		t.Errorf("MeanLatency = %v, want 200ms", got)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestLatencyIncludesWait(t *testing.T) {
	r := Record{Arrival: time.Second, Start: 3 * time.Second, End: 4 * time.Second}
	if r.Latency() != 3*time.Second {
		t.Errorf("Latency = %v, want 3s (includes queueing)", r.Latency())
	}
}

func TestPercentile(t *testing.T) {
	var c Collector
	if c.Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
	for i := 1; i <= 100; i++ {
		c.Add(rec("f", StartWarm, 0, time.Duration(i)*time.Millisecond))
	}
	if got := c.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("P50 = %v", got)
	}
	if got := c.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("P99 = %v", got)
	}
	if got := c.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("P100 = %v", got)
	}
	if got := c.Percentile(0); got != 1*time.Millisecond {
		t.Errorf("P0 = %v", got)
	}
}

func TestKindCountsAndFractions(t *testing.T) {
	var c Collector
	if len(c.KindFractions()) != 0 {
		t.Error("empty fractions should be empty")
	}
	c.Add(rec("a", StartWarm, 0, time.Millisecond))
	c.Add(rec("a", StartWarm, 0, time.Millisecond))
	c.Add(rec("a", StartCold, 0, time.Millisecond))
	c.Add(rec("a", StartTransform, 0, time.Millisecond))
	counts := c.KindCounts()
	if counts[StartWarm] != 2 || counts[StartCold] != 1 || counts[StartTransform] != 1 {
		t.Errorf("counts = %v", counts)
	}
	fr := c.KindFractions()
	if math.Abs(fr[StartWarm]-0.5) > 1e-9 {
		t.Errorf("warm fraction = %v", fr[StartWarm])
	}
}

func TestMeanBreakdown(t *testing.T) {
	var c Collector
	c.Add(Record{Wait: 2 * time.Second, Init: time.Second, Load: 4 * time.Second, Compute: time.Second})
	c.Add(Record{Wait: 0, Init: time.Second, Load: 2 * time.Second, Compute: 3 * time.Second})
	b := c.MeanBreakdown()
	if b.Wait != time.Second || b.Init != time.Second || b.Load != 3*time.Second || b.Compute != 2*time.Second {
		t.Errorf("breakdown = %+v", b)
	}
	if b.Total() != 7*time.Second {
		t.Errorf("total = %v", b.Total())
	}
}

func TestPerFunction(t *testing.T) {
	c := Collector{KeepRecords: true}
	c.Add(rec("a", StartWarm, 0, time.Millisecond))
	c.Add(rec("b", StartCold, 0, 2*time.Millisecond))
	c.Add(rec("a", StartCold, 0, 3*time.Millisecond))
	per := c.PerFunction()
	if len(per) != 2 || per["a"].Len() != 2 || per["b"].Len() != 1 {
		t.Errorf("PerFunction split wrong")
	}
}

func TestCorr(t *testing.T) {
	up := []float64{1, 2, 3, 4, 5}
	down := []float64{5, 4, 3, 2, 1}
	if got := Corr(up, up); math.Abs(got-1) > 1e-9 {
		t.Errorf("Corr(x,x) = %v", got)
	}
	if got := Corr(up, down); math.Abs(got+1) > 1e-9 {
		t.Errorf("Corr(up,down) = %v", got)
	}
	flat := []float64{2, 2, 2, 2, 2}
	if got := Corr(up, flat); got != 0 {
		t.Errorf("zero-variance Corr = %v", got)
	}
	if got := Corr(up, []float64{1, 2}); got != 0 {
		t.Errorf("length-mismatch Corr = %v", got)
	}
	if got := Corr(nil, nil); got != 0 {
		t.Errorf("empty Corr = %v", got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
}

func TestSummarizeDurations(t *testing.T) {
	st := SummarizeDurations(nil)
	if st.Count != 0 || st.Mean != 0 {
		t.Error("empty summary wrong")
	}
	st = SummarizeDurations([]time.Duration{3 * time.Second, time.Second, 2 * time.Second})
	if st.Count != 3 || st.Min != time.Second || st.Max != 3*time.Second || st.Mean != 2*time.Second {
		t.Errorf("summary = %+v", st)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10*time.Millisecond, 10)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	h.Observe(-time.Second)           // clamped into bucket 0
	h.Observe(500 * time.Millisecond) // overflow
	if h.Count() != 102 {
		t.Fatalf("Count = %d", h.Count())
	}
	// 100ms lands exactly on the grid end and overflows alongside 500ms.
	if h.Overflow != 2 {
		t.Errorf("Overflow = %d", h.Overflow)
	}
	if h.Buckets[0] != 10 { // 1..9 ms plus the clamped negative
		t.Errorf("bucket 0 = %d", h.Buckets[0])
	}
	// Median of ~uniform 1..100ms lands near 50ms (bucket resolution 10ms).
	if q := h.Quantile(0.5); q < 40*time.Millisecond || q > 60*time.Millisecond {
		t.Errorf("median = %v", q)
	}
	if q := h.Quantile(1.0); q != 100*time.Millisecond {
		t.Errorf("max quantile = %v", q)
	}
	if q := h.Quantile(-1); q <= 0 {
		t.Errorf("clamped quantile = %v", q)
	}
	// Empty histogram.
	if NewHistogram(0, 0).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
}

func TestLatencyHistogram(t *testing.T) {
	var c Collector
	c.Add(rec("a", StartWarm, 0, 5*time.Millisecond))
	c.Add(rec("a", StartCold, 0, 95*time.Millisecond))
	h := c.LatencyHistogram(10*time.Millisecond, 10)
	if h.Count() != 2 || h.Buckets[0] != 1 || h.Buckets[9] != 1 {
		t.Errorf("histogram = %+v", h)
	}
}

func TestPercentileCacheInvalidation(t *testing.T) {
	var c Collector
	c.Add(rec("f", StartWarm, 0, 10*time.Millisecond))
	if got := c.Percentile(100); got != 10*time.Millisecond {
		t.Fatalf("P100 = %v, want 10ms", got)
	}
	// A later Add must invalidate the cached sorted view.
	c.Add(rec("f", StartWarm, 0, 40*time.Millisecond))
	if got := c.Percentile(100); got != 40*time.Millisecond {
		t.Errorf("P100 after Add = %v, want 40ms (stale sort cache?)", got)
	}
	if got := c.Percentile(50); got != 10*time.Millisecond {
		t.Errorf("P50 after Add = %v, want 10ms", got)
	}
}

func TestPercentileAfterRestoreFrom(t *testing.T) {
	var c Collector
	for i := 1; i <= 10; i++ {
		c.Add(rec("f", StartWarm, 0, time.Duration(i)*time.Second))
	}
	// Warm the sorted-view cache, then replace contents wholesale.
	_ = c.Percentile(50)

	restored := []Record{
		rec("g", StartCold, 0, 100*time.Millisecond),
		rec("g", StartTransform, 0, 300*time.Millisecond),
		rec("g", StartCold, 0, 200*time.Millisecond),
	}
	c.RestoreFrom(restored, FaultStats{Crashes: 2})

	if got := c.Percentile(100); got != 300*time.Millisecond {
		t.Errorf("P100 after restore = %v, want 300ms", got)
	}
	if got := c.Percentile(50); got != 200*time.Millisecond {
		t.Errorf("P50 after restore = %v, want 200ms", got)
	}
	if got := c.MeanLatency(); got != 200*time.Millisecond {
		t.Errorf("mean after restore = %v, want 200ms", got)
	}
	counts := c.KindCounts()
	if counts[StartCold] != 2 || counts[StartTransform] != 1 || len(counts) != 2 {
		t.Errorf("counts after restore = %v", counts)
	}
	if c.Faults.Crashes != 2 {
		t.Errorf("faults after restore = %+v", c.Faults)
	}
}

func TestPercentilesSharedSort(t *testing.T) {
	var c Collector
	if got := c.Percentiles(50, 99); got[0] != 0 || got[1] != 0 {
		t.Error("empty Percentiles should be zeros")
	}
	for i := 1; i <= 100; i++ {
		c.Add(rec("f", StartWarm, 0, time.Duration(i)*time.Millisecond))
	}
	got := c.Percentiles(50, 95, 99)
	want := []time.Duration{50 * time.Millisecond, 95 * time.Millisecond, 99 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQuickMatchesSlowPath(t *testing.T) {
	var c Collector
	if q := c.Quick(); q.Requests != 0 || q.Mean != 0 || q.P50 != 0 || q.P99 != 0 {
		t.Errorf("empty Quick = %+v, want zeros", c.Quick())
	}
	for i := 1; i <= 200; i++ {
		k := StartWarm
		switch {
		case i%7 == 0:
			k = StartCold
		case i%3 == 0:
			k = StartTransform
		}
		c.Add(rec("f", k, 0, time.Duration(i)*time.Millisecond))
	}
	q := c.Quick()
	if q.Requests != c.Len() || q.Mean != c.MeanLatency() ||
		q.P50 != c.Percentile(50) || q.P99 != c.Percentile(99) {
		t.Errorf("Quick aggregate mismatch: %+v", q)
	}
	fr := c.KindFractions()
	for k, want := range fr {
		if got := q.Fraction(k); got != want {
			t.Errorf("Fraction(%v) = %v, want %v", k, got, want)
		}
	}
	if q.Fraction(startKindCount) != 0 {
		t.Error("out-of-range Fraction should be 0")
	}
}

// TestQuickAllocFree is the stats-path regression bound: once the sorted
// cache is warm (one read after the last Add), Quick must not allocate — the
// /api/stats handler builds its summary from it on every poll.
func TestQuickAllocFree(t *testing.T) {
	var c Collector
	for i := 0; i < 5000; i++ {
		c.Add(rec("f", StartKind(i%int(startKindCount)), 0, time.Duration(i)*time.Microsecond))
	}
	c.Quick() // warm the sorted-latency cache
	if avg := testing.AllocsPerRun(100, func() {
		q := c.Quick()
		if q.Requests != 5000 {
			t.Fatal("bad request count")
		}
	}); avg != 0 {
		t.Errorf("Quick allocates %.1f objects/call on a warm cache, want 0", avg)
	}
}

// TestSortedViewMatchesFullSort interleaves Adds, reads and RestoreFroms at
// random and requires every read of the incrementally merged latency view to
// equal a full re-sort of all records.
func TestSortedViewMatchesFullSort(t *testing.T) {
	ps := []float64{0, 1, 25, 50, 90, 99, 99.9, 100}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := Collector{KeepRecords: true}
		for op := 0; op < 400; op++ {
			switch u := rng.Intn(100); {
			case u < 70:
				for n := rng.Intn(20); n >= 0; n-- {
					// Few distinct latencies, so old and new values tie.
					lat := time.Duration(rng.Intn(50)) * time.Millisecond
					c.Add(rec("f", StartKind(rng.Intn(int(startKindCount))), 0, lat))
				}
			case u < 75:
				recs := c.Records()
				c.RestoreFrom(recs[:rng.Intn(len(recs)+1)], FaultStats{})
			default:
				lats := make([]time.Duration, 0, c.Len())
				for _, r := range c.Records() {
					lats = append(lats, r.Latency())
				}
				slices.Sort(lats)
				if c.Len() == 0 {
					if q := c.Quick(); q.P50 != 0 || c.Percentile(50) != 0 {
						t.Fatalf("seed %d op %d: empty collector reads %+v", seed, op, q)
					}
					continue
				}
				// Whichever reader runs first does the merge.
				for k, first := 0, rng.Intn(3); k < 3; k++ {
					switch (first + k) % 3 {
					case 0:
						q := c.Quick()
						if q.P50 != PercentileSorted(lats, 50) || q.P99 != PercentileSorted(lats, 99) {
							t.Fatalf("seed %d op %d: Quick %+v disagrees with a full sort", seed, op, q)
						}
					case 1:
						for _, p := range ps {
							if got, want := c.Percentile(p), PercentileSorted(lats, p); got != want {
								t.Fatalf("seed %d op %d: Percentile(%v) = %v, want %v", seed, op, p, got, want)
							}
						}
					case 2:
						got := c.Percentiles(ps...)
						for i, p := range ps {
							if want := PercentileSorted(lats, p); got[i] != want {
								t.Fatalf("seed %d op %d: Percentiles p%v = %v, want %v", seed, op, p, got[i], want)
							}
						}
					}
				}
				if !slices.Equal(c.sortedLatencies(), lats) {
					t.Fatalf("seed %d op %d: sorted view differs from a full sort", seed, op)
				}
			}
		}
	}
}
