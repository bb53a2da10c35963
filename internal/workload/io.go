package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
)

// Traces persist as two-column CSV — nanosecond arrival offset, function
// name — so generated workloads can be archived, inspected with standard
// tools, and replayed bit-for-bit (the role the Azure trace file plays for
// the paper's testbed).

// WriteCSV writes the trace to w. The first record is a header; the last is
// a pseudo-record carrying the trace horizon.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_ns", "function"}); err != nil {
		return fmt.Errorf("workload: writing trace header: %w", err)
	}
	for _, r := range t.Requests {
		rec := []string{strconv.FormatInt(r.At.Nanoseconds(), 10), r.Function}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("workload: writing trace: %w", err)
		}
	}
	if err := cw.Write([]string{strconv.FormatInt(t.Duration.Nanoseconds(), 10), "#horizon"}); err != nil {
		return fmt.Errorf("workload: writing trace horizon: %w", err)
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV. Requests are re-sorted, so
// hand-edited files need not stay ordered.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if len(recs) == 0 || recs[0][0] != "at_ns" {
		return nil, fmt.Errorf("workload: missing trace header")
	}
	t := &Trace{}
	for _, rec := range recs[1:] {
		us, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: bad arrival %q: %w", rec[0], err)
		}
		at := time.Duration(us)
		if rec[1] == "#horizon" {
			t.Duration = at
			continue
		}
		t.Requests = append(t.Requests, Request{Function: rec[1], At: at})
	}
	slices.SortFunc(t.Requests, byArrival)
	if t.Duration == 0 && len(t.Requests) > 0 {
		t.Duration = t.Requests[len(t.Requests)-1].At + time.Second
	}
	for _, r := range t.Requests {
		if r.At < 0 || r.At > t.Duration {
			return nil, fmt.Errorf("workload: arrival %v outside horizon %v", r.At, t.Duration)
		}
	}
	return t, nil
}

// Functions returns the distinct function names appearing in the trace,
// sorted.
func (t *Trace) Functions() []string {
	seen := make(map[string]bool)
	for _, r := range t.Requests {
		seen[r.Function] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}
