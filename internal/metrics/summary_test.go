package metrics

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
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
	if col.Summary != whole {
		t.Fatal("collector summary != streaming summary of same records")
	}
}

// TestCollectorKeepRecords checks that a collector retains records only when
// asked, and that its aggregates and exact percentiles do not depend on it.
func TestCollectorKeepRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = randomRecord(rng)
	}
	kept := Collector{KeepRecords: true}
	var bare Collector
	var sum Summary
	for _, r := range recs {
		kept.Add(r)
		bare.Add(r)
		sum.Observe(r)
	}
	if len(bare.Records()) != 0 || !slices.Equal(kept.Records(), recs) {
		t.Fatalf("retained %d records without KeepRecords and %d of %d with it",
			len(bare.Records()), len(kept.Records()), len(recs))
	}
	if bare.Summary != sum || kept.Summary != sum {
		t.Fatal("collector summary != summary of the same records")
	}
	if bare.Len() != len(recs) || bare.MeanLatency() != kept.MeanLatency() {
		t.Fatalf("len %d mean %v, want %d and %v", bare.Len(), bare.MeanLatency(), len(recs), kept.MeanLatency())
	}
	lats := make([]time.Duration, len(recs))
	for i, r := range recs {
		lats[i] = r.Latency()
	}
	slices.Sort(lats)
	for _, p := range []float64{0, 50, 99, 99.9, 100} {
		if got, want := bare.Percentile(p), PercentileSorted(lats, p); got != want {
			t.Fatalf("p%v = %v, want the exact %v", p, got, want)
		}
	}
}

// TestCollectorMerge splits records over three collectors, each in Start
// order, and requires the merge to equal one collector of all of them:
// records ordered by Start, equal Starts by argument order.
func TestCollectorMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	parts := []Collector{{KeepRecords: true}, {KeepRecords: true}, {KeepRecords: true}}
	var all []Record
	for start := time.Duration(0); len(all) < 3000; start += time.Duration(rng.Intn(3)) * time.Millisecond {
		r := randomRecord(rng)
		r.Start = start // few distinct Starts, so parts tie
		p := rng.Intn(len(parts))
		r.Function = string(rune('a' + p))
		parts[p].Add(r)
		parts[p].Faults.Crashes++
		all = append(all, r)
	}
	slices.SortStableFunc(all, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Function, b.Function))
	})
	want := Collector{KeepRecords: true}
	for _, r := range all {
		want.Add(r)
	}
	want.Faults.Crashes = len(all)
	got := Collector{KeepRecords: true}
	got.Merge(&parts[0], &parts[1], &parts[2])
	if !slices.Equal(got.Records(), want.Records()) {
		t.Fatal("merged records are not in Start order, equal Starts by argument order")
	}
	if got.Summary != want.Summary || !slices.Equal(got.sortedLatencies(), want.sortedLatencies()) {
		t.Fatal("merged aggregates differ from one collector of every record")
	}
	var bare Collector
	bare.Merge(&parts[0], &parts[1], &parts[2])
	if len(bare.Records()) != 0 || bare.Summary != want.Summary {
		t.Fatal("a collector without KeepRecords must merge aggregates only")
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
