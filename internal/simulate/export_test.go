package simulate

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// RunSerial replays the trace like Run, but in one chunk on the one serial
// loop, keeping every record in its serial order: the reference the
// group-parallel tests compare Run and RunStream with.
func (s *Simulator) RunSerial(trace *workload.Trace) (*metrics.Collector, error) {
	arrivals := make([]arrival, len(trace.Requests))
	for i, r := range trace.Requests {
		fr, ok := s.resolve(r.Function)
		if !ok {
			return nil, fmt.Errorf("simulate: trace references unknown function %q", r.Function)
		}
		arrivals[i] = arrival{at: r.At, fr: fr}
	}
	slices.SortStableFunc(arrivals, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	if !s.cfg.RouteScan || s.cfg.CrossCheckRouting {
		s.enableIndex()
	}
	s.collector.KeepRecords = true
	s.runChunk(arrivals, 0, true)
	s.foldFanoutLog()
	return &s.collector, nil
}

// ReplayGroups reports how many node groups Run and RunStream replay on
// parallel workers (0 when a coupling keeps them on the serial path).
func (s *Simulator) ReplayGroups() int {
	groups, _ := s.replayGroups()
	return groups
}

// SetStreamChunk makes RunStream pull n arrivals per chunk until the test
// ends, so small fixtures cross chunk boundaries.
func SetStreamChunk(t testing.TB, n int) {
	old := streamChunk
	streamChunk = n
	t.Cleanup(func() { streamChunk = old })
}

// Clock reports the simulator's virtual clock.
func (s *Simulator) Clock() time.Duration { return s.clock }
