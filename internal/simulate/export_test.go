package simulate

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// RunSerial replays the trace like Run, but always on the one serial loop
// and in its record order: the reference the group-parallel tests compare
// Run with.
func (s *Simulator) RunSerial(trace *workload.Trace) (*metrics.Collector, error) {
	arrivals, err := s.prepare(trace)
	if err != nil {
		return nil, err
	}
	s.runWindow(arrivals, 0, true)
	return &s.collector, nil
}

// ReplayGroups reports how many node groups Run replays on parallel workers
// (0 when a coupling keeps it on the serial path).
func (s *Simulator) ReplayGroups() int {
	groups, _ := s.replayGroups(false)
	return groups
}

// StreamGroups reports how many node groups RunStream replays on parallel
// workers (0 when a coupling keeps it on the serial path).
func (s *Simulator) StreamGroups() int {
	groups, _ := s.replayGroups(true)
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
