package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPoissonDeterministic(t *testing.T) {
	fns := []string{"a", "b", "c"}
	t1 := Poisson(fns, 0.01, time.Hour, 42)
	t2 := Poisson(fns, 0.01, time.Hour, 42)
	if t1.Len() != t2.Len() {
		t.Fatalf("same-seed traces differ in length: %d vs %d", t1.Len(), t2.Len())
	}
	for i := range t1.Requests {
		if t1.Requests[i] != t2.Requests[i] {
			t.Fatalf("same-seed traces differ at %d", i)
		}
	}
	t3 := Poisson(fns, 0.01, time.Hour, 43)
	same := t1.Len() == t3.Len()
	if same {
		for i := range t1.Requests {
			if t1.Requests[i] != t3.Requests[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestPoissonRateMatchesExpectation(t *testing.T) {
	fns := []string{"f"}
	rate := 0.05 // 1 per 20 s
	dur := 10 * time.Hour
	tr := Poisson(fns, rate, dur, 1)
	expect := rate * dur.Seconds()
	if got := float64(tr.Len()); math.Abs(got-expect)/expect > 0.2 {
		t.Errorf("got %.0f arrivals, expected ≈ %.0f", got, expect)
	}
}

func TestPoissonSortedAndBounded(t *testing.T) {
	tr := Poisson([]string{"x", "y"}, 0.02, time.Hour, 9)
	var prev time.Duration = -1
	for _, r := range tr.Requests {
		if r.At < prev {
			t.Fatal("trace not time-ordered")
		}
		if r.At < 0 || r.At >= tr.Duration {
			t.Fatalf("arrival %v outside [0, %v)", r.At, tr.Duration)
		}
		prev = r.At
	}
}

func TestPoissonRatesZeroAndNegative(t *testing.T) {
	tr := PoissonRates(map[string]float64{"a": 0, "b": -1, "c": 0.01}, time.Hour, 5)
	for _, r := range tr.Requests {
		if r.Function != "c" {
			t.Fatalf("zero-rate function %q generated arrivals", r.Function)
		}
	}
}

func TestIntensityOrdering(t *testing.T) {
	if !(RateFrequent > RateMiddle && RateMiddle > RateInfrequent) {
		t.Fatalf("intensities not monotone: %g, %g, %g", RateFrequent, RateMiddle, RateInfrequent)
	}
	if math.Abs(RateFrequent-0.01) > 1e-12 {
		t.Errorf("RateFrequent = %g, want 1e-2", RateFrequent)
	}
}

func TestMixedPoissonCoversAllFunctions(t *testing.T) {
	fns := []string{"a", "b", "c", "d", "e", "f"}
	tr := MixedPoisson(fns, 100*time.Hour, 3)
	counts := map[string]int{}
	for _, r := range tr.Requests {
		counts[r.Function]++
	}
	// Frequent functions (every third) should see roughly 10× the arrivals
	// of infrequent ones over a long horizon.
	if counts["a"] < 3*counts["c"] {
		t.Errorf("frequent fn a (%d) should far exceed infrequent fn c (%d)", counts["a"], counts["c"])
	}
	for _, f := range fns {
		if counts[f] == 0 {
			t.Errorf("function %s got no arrivals in 100 h", f)
		}
	}
}

func TestAzureLike(t *testing.T) {
	fns := make([]string, 50)
	for i := range fns {
		fns[i] = "fn" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	tr := AzureLike(fns, 6*time.Hour, 7)
	if tr.Len() == 0 {
		t.Fatal("empty Azure-like trace")
	}
	// Determinism.
	tr2 := AzureLike(fns, 6*time.Hour, 7)
	if tr.Len() != tr2.Len() {
		t.Fatal("Azure-like trace not deterministic")
	}
	// Skew: the busiest function should dwarf the median one (the Azure
	// characterization's heavy head over a long rare tail).
	counts := make([]int, 0, len(fns))
	byFn := map[string]int{}
	for _, r := range tr.Requests {
		byFn[r.Function]++
	}
	for _, c := range byFn {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	maxC := counts[len(counts)-1]
	median := counts[len(counts)/2]
	if maxC < 5*median {
		t.Errorf("no skew: max %d vs median %d", maxC, median)
	}
	var prev time.Duration = -1
	for _, r := range tr.Requests {
		if r.At < prev {
			t.Fatal("Azure-like trace not sorted")
		}
		prev = r.At
	}
}

func TestSeries(t *testing.T) {
	tr := &Trace{
		Duration: 10 * time.Minute,
		Requests: []Request{
			{"a", 30 * time.Second},
			{"a", 90 * time.Second},
			{"b", 90 * time.Second},
			{"a", 9 * time.Minute},
		},
	}
	s := Series(tr, "a", time.Minute)
	if len(s) != 11 {
		t.Fatalf("series length %d, want 11", len(s))
	}
	if s[0] != 1 || s[1] != 1 || s[9] != 1 {
		t.Errorf("series = %v", s)
	}
	var total float64
	for _, x := range s {
		total += x
	}
	if total != 3 {
		t.Errorf("series total %v, want 3", total)
	}
	all := AllSeries(tr, []string{"a", "b"}, time.Minute)
	if len(all) != 2 || all["b"][1] != 1 {
		t.Errorf("AllSeries = %v", all)
	}
	if Series(tr, "a", 0) != nil {
		t.Error("zero slot should return nil")
	}
}

func TestPeriodicFunctionsAreRegular(t *testing.T) {
	// A trace of only periodic functions should show near-constant gaps.
	tr := newStream(4*time.Hour, []string{"p"},
		[]arrivalGen{periodicArrivals(4*time.Hour, newTestRand())}).Materialize()
	if tr.Len() < 3 {
		t.Skip("period too long for horizon")
	}
	gaps := make([]float64, 0, tr.Len()-1)
	for i := 1; i < tr.Len(); i++ {
		gaps = append(gaps, (tr.Requests[i].At - tr.Requests[i-1].At).Seconds())
	}
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		if math.Abs(g-mean)/mean > 0.25 {
			t.Fatalf("periodic gap %v deviates >25%% from mean %v", g, mean)
		}
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(11)) }

func TestTraceCSVRoundTrip(t *testing.T) {
	orig := MixedPoisson([]string{"a", "b", "c"}, 2*time.Hour, 9)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Duration != orig.Duration {
		t.Errorf("duration %v != %v", back.Duration, orig.Duration)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("len %d != %d", back.Len(), orig.Len())
	}
	for i := range orig.Requests {
		if orig.Requests[i] != back.Requests[i] {
			t.Fatalf("request %d differs: %v vs %v", i, orig.Requests[i], back.Requests[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                               // empty
		"bogus,header\n1,a\n",            // wrong header
		"at_ns,function\nnot-a-number,a", // bad arrival
		"at_ns,function\n5000000000,a\n1000000000,#horizon\n", // arrival beyond horizon
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
	// No explicit horizon: inferred from the last arrival.
	tr, err := ReadCSV(strings.NewReader("at_ns,function\n1000000000,a\n3000000000,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration < 3*time.Second {
		t.Errorf("inferred horizon %v too small", tr.Duration)
	}
}

func TestTraceFunctions(t *testing.T) {
	tr := &Trace{Requests: []Request{{"b", 1}, {"a", 2}, {"b", 3}}}
	fns := tr.Functions()
	if len(fns) != 2 || fns[0] != "a" || fns[1] != "b" {
		t.Errorf("Functions() = %v", fns)
	}
}

func TestReadAzureInvocationsCSV(t *testing.T) {
	csvData := "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n" +
		"o1,appA,fn1,http,2,0,1\n" +
		"o1,appB,fn1,timer,0,3,0\n"
	tr, err := ReadAzureInvocationsCSV(strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Duration != 3*time.Minute {
		t.Errorf("duration = %v", tr.Duration)
	}
	if tr.Len() != 6 {
		t.Fatalf("got %d arrivals, want 6", tr.Len())
	}
	// Same HashFunction under different apps stays distinct.
	fns := tr.Functions()
	if len(fns) != 2 || fns[0] != "appA/fn1" || fns[1] != "appB/fn1" {
		t.Fatalf("functions = %v", fns)
	}
	// Counts land inside their minute, evenly spread.
	counts := map[int]int{}
	for _, r := range tr.Requests {
		if r.Function == "appA/fn1" {
			counts[int(r.At/time.Minute)]++
		}
	}
	if counts[0] != 2 || counts[1] != 0 || counts[2] != 1 {
		t.Errorf("per-minute counts = %v", counts)
	}
	for _, r := range tr.Requests {
		if r.At < 0 || r.At >= tr.Duration {
			t.Errorf("arrival %v outside horizon", r.At)
		}
	}
}

func TestReadAzureInvocationsCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"Wrong,Header,Row,x,1\no,a,f,h,1\n",
		"HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,h\n",        // short row
		"HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,h,notnum\n", // bad count
		"HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,h,-3\n",     // negative
	}
	for i, c := range cases {
		if _, err := ReadAzureInvocationsCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// BenchmarkGeneratePoissonRates generates a replay-scale trace: 1024
// functions at eight rate levels, about 1M requests over 30 minutes.
func BenchmarkGeneratePoissonRates(b *testing.B) {
	const nfns, requests, horizon = 1024, 1_000_000, 30 * time.Minute
	perFn := requests / horizon.Seconds() / nfns
	rates := make(map[string]float64, nfns)
	for i := 0; i < nfns; i++ {
		rates[fmt.Sprintf("fn-%04d", i)] = perFn * (0.25 + 1.5*float64(i%8)/7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr := PoissonRates(rates, horizon, int64(i)); tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}
