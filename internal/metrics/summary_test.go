package metrics

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// adversarialSamples builds the distributions most likely to expose a sketch:
// bimodal (huge gap between modes), heavy-tail (Pareto-ish octave spread),
// all-equal (every quantile the same value), and single-sample.
func adversarialSamples() map[string][]time.Duration {
	rng := rand.New(rand.NewSource(23))
	bimodal := make([]time.Duration, 0, 4000)
	for i := 0; i < 2000; i++ {
		bimodal = append(bimodal, time.Millisecond+time.Duration(rng.Int63n(int64(time.Millisecond))))
		bimodal = append(bimodal, time.Hour+time.Duration(rng.Int63n(int64(time.Minute))))
	}
	heavy := make([]time.Duration, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Draw an octave uniformly, then a value inside it: mass spread over
		// ~20 powers of two, the worst case for log-linear bucketing.
		oct := 10 + rng.Intn(20)
		heavy = append(heavy, time.Duration(uint64(1)<<oct)+time.Duration(rng.Int63n(int64(uint64(1)<<oct))))
	}
	equal := make([]time.Duration, 3000)
	for i := range equal {
		equal[i] = 777 * time.Millisecond
	}
	return map[string][]time.Duration{
		"bimodal":       bimodal,
		"heavy-tail":    heavy,
		"all-equal":     equal,
		"single-sample": {42 * time.Second},
	}
}

// TestDigestAdversarialRelativeError verifies the ≤ 2^-5 quantile bound
// against exact nearest-rank on every adversarial distribution.
func TestDigestAdversarialRelativeError(t *testing.T) {
	for name, samples := range adversarialSamples() {
		t.Run(name, func(t *testing.T) {
			var d DurationDigest
			for _, v := range samples {
				d.Observe(v)
			}
			for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
				exact := DurationPercentile(samples, p)
				got := d.Percentile(p)
				if got < exact {
					t.Errorf("p%v: digest %v below exact %v", p, got, exact)
				}
				if exact > 0 && float64(got-exact)/float64(exact) > 1.0/32 {
					t.Errorf("p%v: digest %v exceeds exact %v beyond 2^-5", p, got, exact)
				}
			}
			if d.Max() != DurationPercentile(samples, 100) {
				t.Errorf("max %v != exact %v", d.Max(), DurationPercentile(samples, 100))
			}
		})
	}
}

// digestOf sketches a sample slice.
func digestOf(samples []time.Duration) DurationDigest {
	var d DurationDigest
	for _, v := range samples {
		d.Observe(v)
	}
	return d
}

// TestDigestMergeProperties checks Merge is associative and commutative with
// the zero digest as identity, and that any merge order equals the digest of
// the concatenated stream exactly — same buckets, count, total, max (digest
// values are comparable, so == is the whole-state check).
func TestDigestMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	parts := make([][]time.Duration, 3)
	var all []time.Duration
	for i := range parts {
		n := 500 + rng.Intn(1500)
		for j := 0; j < n; j++ {
			v := time.Duration(rng.Int63n(int64(2 * time.Hour)))
			parts[i] = append(parts[i], v)
			all = append(all, v)
		}
	}
	a, b, c := digestOf(parts[0]), digestOf(parts[1]), digestOf(parts[2])
	whole := digestOf(all)

	// (a ⊕ b) ⊕ c
	left := a
	left.Merge(&b)
	left.Merge(&c)
	// a ⊕ (b ⊕ c)
	bc := b
	bc.Merge(&c)
	right := a
	right.Merge(&bc)
	if left != right {
		t.Fatal("merge is not associative")
	}
	// b ⊕ a vs a ⊕ b
	ab := a
	ab.Merge(&b)
	ba := b
	ba.Merge(&a)
	if ab != ba {
		t.Fatal("merge is not commutative")
	}
	// a ⊕ zero = a
	var zero DurationDigest
	id := a
	id.Merge(&zero)
	if id != a {
		t.Fatal("zero digest is not a merge identity")
	}
	if left != whole {
		t.Fatalf("merged parts != digest of concatenated stream:\ncount %d vs %d, total %v vs %v, max %v vs %v",
			left.Count(), whole.Count(), left.Total(), whole.Total(), left.Max(), whole.Max())
	}
}

// randomRecord draws an arbitrary record.
func randomRecord(rng *rand.Rand) Record {
	arr := time.Duration(rng.Int63n(int64(time.Hour)))
	wait := time.Duration(rng.Int63n(int64(time.Second)))
	st := arr + wait
	init := time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
	load := time.Duration(rng.Int63n(int64(3 * time.Second)))
	comp := time.Duration(rng.Int63n(int64(400 * time.Millisecond)))
	return Record{
		Function: "f",
		Kind:     StartKind(rng.Intn(int(startKindCount))),
		Arrival:  arr,
		Start:    st,
		End:      st + init + load + comp,
		Wait:     wait,
		Init:     init,
		Load:     load,
		Compute:  comp,
		Retries:  rng.Intn(3),
	}
}

// TestSummaryMergeMatchesConcatenation: merging per-shard summaries must
// equal (==) summarizing the concatenated record stream, and match the
// collector-derived summary of the same records.
func TestSummaryMergeMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var whole Summary
	var col Collector
	shards := make([]Summary, 4)
	for i := 0; i < 6000; i++ {
		r := randomRecord(rng)
		whole.Observe(r)
		col.Add(r)
		shards[i%len(shards)].Observe(r)
	}
	var merged Summary
	for i := range shards {
		merged.Merge(&shards[i])
	}
	if merged != whole {
		t.Fatal("merged shard summaries != summary of concatenated stream")
	}
	if got := *SummaryOf(&col); got != whole {
		t.Fatal("SummaryOf(collector) != streaming summary of same records")
	}
}

// TestCollectorStreamInto checks streaming mode retains nothing and produces
// the same summary a materialized collector derives.
func TestCollectorStreamInto(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	var mat Collector
	for _, r := range recs {
		mat.Add(r)
	}
	var sum Summary
	var str Collector
	str.StreamInto(&sum)
	str.Reserve(len(recs)) // must not allocate records in streaming mode
	for _, r := range recs {
		str.Add(r)
	}
	if str.Len() != 0 || len(str.Records()) != 0 {
		t.Fatalf("streaming collector retained %d records", str.Len())
	}
	if str.Stream() != &sum {
		t.Fatal("Stream() is not the summary given to StreamInto")
	}
	if want := *SummaryOf(&mat); sum != want {
		t.Fatal("streamed summary != SummaryOf(materialized collector)")
	}
	if sum.Count() != len(recs) {
		t.Fatalf("count %d, want %d", sum.Count(), len(recs))
	}
	if sum.MeanLatency() != mat.MeanLatency() {
		t.Fatalf("mean %v != %v (mean is exact)", sum.MeanLatency(), mat.MeanLatency())
	}
	for k, n := range mat.KindCounts() {
		if sum.KindCounts()[k] != n {
			t.Fatalf("kind %v: %d vs %d", k, sum.KindCounts()[k], n)
		}
	}
}

// TestFaultStatsMergeCoversAllFields sets every int field to a distinct
// value via reflection and checks Merge adds each one — a new FaultStats
// counter that Merge forgets fails here, not silently in shard merges.
func TestFaultStatsMergeCoversAllFields(t *testing.T) {
	var a, b FaultStats
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int {
			t.Fatalf("FaultStats field %s is %v; Merge and this test assume int counters",
				av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Merge(b)
	for i := 0; i < av.NumField(); i++ {
		want := int64(i+1) + int64(100*(i+1))
		if got := av.Field(i).Int(); got != want {
			t.Errorf("field %s: merged %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}
