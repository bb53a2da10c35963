package workload

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// fnNames builds n distinct function names.
func fnNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fn-%02d", i)
	}
	return out
}

// sameTrace requires a and b to be request-for-request identical.
func sameTrace(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.Duration != b.Duration {
		t.Fatalf("duration: %v vs %v", a.Duration, b.Duration)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("length: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
}

// drainSorted is the materialized reference a Stream must match: every
// function's arrivals drained in turn, then sorted by byArrival. It reads
// the generators straight off the merge heap, so the merge itself is not
// involved.
func drainSorted(s *Stream) *Trace {
	t := &Trace{Duration: s.duration}
	for _, c := range s.h {
		for at, ok := c.at, true; ok; at, ok = c.gen() {
			t.Requests = append(t.Requests, Request{Function: c.name, At: at})
		}
	}
	slices.SortFunc(t.Requests, byArrival)
	return t
}

// TestStreamMatchesMaterialized is the merge-order property: for every
// generator family and seeds 1..8, the k-way-heap stream must reproduce its
// generators' arrivals sorted by (at, function name), ties included.
func TestStreamMatchesMaterialized(t *testing.T) {
	fns := fnNames(40)
	const horizon = 48 * time.Hour
	rates := map[string]float64{}
	for i, f := range fns {
		rates[f] = RateFrequent * float64(1+i%7)
	}
	families := []struct {
		name string
		str  func(seed int64) *Stream
	}{
		{"poisson", func(s int64) *Stream { return StreamPoisson(fns, RateFrequent, horizon, s) }},
		{"poisson-rates", func(s int64) *Stream { return StreamPoissonRates(rates, horizon, s) }},
		{"mixed", func(s int64) *Stream { return StreamMixedPoisson(fns, horizon, s) }},
		{"azure", func(s int64) *Stream { return StreamAzureLike(fns, horizon, s) }},
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fam.name, seed), func(t *testing.T) {
				want := drainSorted(fam.str(seed))
				if want.Len() == 0 {
					t.Fatalf("empty reference trace — vacuous comparison")
				}
				sameTrace(t, want, fam.str(seed).Materialize())
			})
		}
	}
}

// TestStreamTieBreak drives the merge heap directly with generators that
// collide on timestamps: equal arrival times must come out ordered by
// function name.
func TestStreamTieBreak(t *testing.T) {
	const horizon = 10 * time.Second
	// Three functions all firing at t=1s,2s,3s,... — every timestamp is a
	// three-way tie. Register them out of name order to make heap order do
	// the work.
	mk := func() arrivalGen {
		at := time.Duration(0)
		return func() (time.Duration, bool) {
			at += time.Second
			if at >= horizon {
				return 0, false
			}
			return at, true
		}
	}
	names := []string{"zz", "aa", "mm"}
	s := newStream(horizon, names, []arrivalGen{mk(), mk(), mk()})
	want := &Trace{Duration: horizon}
	for at := time.Second; at < horizon; at += time.Second {
		for _, f := range []string{"aa", "mm", "zz"} {
			want.Requests = append(want.Requests, Request{Function: f, At: at})
		}
	}
	sameTrace(t, want, s.Materialize())
}

// TestStreamExhaustion checks Next keeps returning false after the end.
func TestStreamExhaustion(t *testing.T) {
	s := StreamPoisson(fnNames(3), RateFrequent, time.Hour, 1)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	for i := 0; i < 3; i++ {
		if r, ok := s.Next(); ok {
			t.Fatalf("Next after exhaustion returned %+v", r)
		}
	}
}

// TestTraceCursor checks the materialized adapter replays the trace as-is.
func TestTraceCursor(t *testing.T) {
	tr := MixedPoisson(fnNames(5), 6*time.Hour, 3)
	cur := tr.Cursor()
	for i := range tr.Requests {
		r, ok := cur.Next()
		if !ok {
			t.Fatalf("cursor ended early at %d of %d", i, tr.Len())
		}
		if r != tr.Requests[i] {
			t.Fatalf("request %d: %+v vs %+v", i, r, tr.Requests[i])
		}
	}
	if _, ok := cur.Next(); ok {
		t.Fatalf("cursor did not end with the trace")
	}
}
