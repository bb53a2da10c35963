package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestSelfTimesNested(t *testing.T) {
	// client [0,100] > proxy [10,90] > gateway [20,60]
	spans := []span{
		{ID: 1, Req: 7, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 7, Name: "proxy", Start: 10, End: 90},
		{ID: 3, Parent: 2, Req: 7, Name: "gateway", Start: 20, End: 60},
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 20, 2: 40, 3: 40}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self = %v, want %v", got, want)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two children overlapping on [30,40]: the parent loses their union
	// (30), while each child keeps its own duration.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 20, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 70, 2: 20, 3: 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self = %v, want %v", got, want)
	}
}

func TestSelfTimesClippedChildren(t *testing.T) {
	// The child starts before and ends after its parent, and its own child
	// lies partly outside the parent: everything is clipped to the parent's
	// interval, so the chain still sums to the root.
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 10, End: 50},
		{ID: 2, Parent: 1, Req: 1, Name: "child", Start: 0, End: 60},
		{ID: 3, Parent: 2, Req: 1, Name: "grandchild", Start: 40, End: 70},
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 0, 2: 30, 3: 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self = %v, want %v", got, want)
	}
	if e := selfSumError(spans, "root"); e != 0 {
		t.Fatalf("self-sum error = %v, want 0", e)
	}
}

func TestSelfSumMatchesRootPerRequest(t *testing.T) {
	var spans []span
	id := int64(0)
	next := func() int64 { id++; return id }
	for req := int64(1); req <= 50; req++ {
		base := req * 1000
		c := next()
		spans = append(spans, span{ID: c, Req: req, Name: "client", Start: base, End: base + 500 + req})
		p := next()
		spans = append(spans, span{ID: p, Parent: c, Req: req, Name: "proxy", Start: base + 20, End: base + 400})
		if req%2 == 0 { // forwarded: an owner hop under the entry proxy
			o := next()
			spans = append(spans, span{ID: o, Parent: p, Req: req, Name: "proxy.owner", Start: base + 100, End: base + 390})
			p = o
		}
		spans = append(spans, span{ID: next(), Parent: p, Req: req, Name: "gateway", Start: base + 150, End: base + 380})
	}
	if e := selfSumError(spans, "client"); e > 0.01 {
		t.Fatalf("self times miss the root by %.4f, want ≤ 1%%", e)
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if self[s.ID] < 0 || self[s.ID] > s.dur() {
			t.Fatalf("span %+v has self time %d outside [0, duration]", s, self[s.ID])
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []span{
		{ID: 1, Req: 3, Name: "client", Start: 5, End: 900},
		{ID: 2, Parent: 1, Req: 3, Name: "gateway", Start: 100, End: 800},
		{ID: 3, Name: "setup", Start: math.MaxInt64 - 1, End: math.MaxInt64},
	}
	var buf bytes.Buffer
	if err := writeJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != len(in) {
		t.Fatalf("%d lines, want %d", n, len(in))
	}
	out, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

func TestRecorderDropsPastCapacity(t *testing.T) {
	r := newRecorder(2)
	for i := 0; i < 3; i++ {
		r.add(span{ID: r.newID()})
	}
	if got := len(r.snapshot()); got != 2 || r.dropped != 1 {
		t.Fatalf("kept %d dropped %d, want 2 and 1", got, r.dropped)
	}
	var nilRec *recorder
	nilRec.add(span{}) // a nil recorder records nothing and must not panic
}

func readJSONL(r io.Reader) ([]span, error) {
	var out []span
	dec := json.NewDecoder(r)
	for {
		var s span
		err := dec.Decode(&s)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}
