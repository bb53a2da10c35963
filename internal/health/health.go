// Package health is a per-node health state machine for gray-failure
// detection, driven entirely by virtual-time observations from the simulator
// and gateway. A node moves healthy → suspect → quarantined → draining →
// recovered → healthy as EWMA latency and failure signals rise and clear;
// routing consults Avoid to skip quarantined and draining nodes so in-flight
// work drains instead of being dropped.
//
// Everything here is deterministic: signals are pure functions of the
// observation stream and transitions advance only on caller-supplied virtual
// instants, never the wall clock, so a seeded run replays the exact same
// health episodes.
package health

import (
	"fmt"
	"time"
)

// State is a node's position in the health lifecycle.
type State uint8

const (
	// Healthy nodes route normally.
	Healthy State = iota
	// Suspect nodes keep routing but are one sustained bad signal away from
	// quarantine.
	Suspect
	// Quarantined nodes receive no new work; in-flight and queued requests
	// keep running.
	Quarantined
	// Draining nodes are quarantined nodes past their quarantine window,
	// waiting for the last in-flight request to finish.
	Draining
	// Recovered nodes route again but are on probation: a clean streak
	// returns them to healthy, a relapse sends them straight back to suspect.
	Recovered
	stateCount
)

// String names the state.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Draining:
		return "draining"
	case Recovered:
		return "recovered"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// parseState inverts String for checkpoint restore. Unknown names restore as
// Suspect: routable, but one sustained bad signal from quarantine — the
// conservative reading of a state this build does not know.
func parseState(s string) State {
	for st := Healthy; st < stateCount; st++ {
		if st.String() == s {
			return st
		}
	}
	return Suspect
}

// Config parameterizes the tracker. The zero value disables tracking
// (New returns nil).
type Config struct {
	// Enabled turns health tracking on.
	Enabled bool
	// ObserveOnly keeps the tracker's signals and episodes but makes Avoid
	// always report false, so routing ignores health state. Used to measure
	// fault windows on a baseline run without changing its behavior.
	ObserveOnly bool
	// Alpha is the EWMA weight for new observations (default 0.2).
	Alpha float64
	// LatencyFactor flags a node whose latency EWMA exceeds this multiple of
	// the cluster-wide EWMA (default 3).
	LatencyFactor float64
	// FailureThreshold flags a node whose failure-rate EWMA exceeds it
	// (default 0.5).
	FailureThreshold float64
	// MinObservations is how many per-node observations the latency signal
	// needs before it is trusted (default 8). The failure signal has no
	// warm-up: failures are unambiguous.
	MinObservations int
	// SuspectStrikes consecutive flagged observations take a healthy (or
	// recovered) node to suspect (default 3).
	SuspectStrikes int
	// QuarantineStrikes further flagged observations take a suspect node to
	// quarantined (default 3).
	QuarantineStrikes int
	// ClearStreak consecutive clean observations return a suspect or
	// recovered node to healthy (default 16).
	ClearStreak int
	// QuarantineDuration is how long a node stays quarantined before it
	// starts draining (default 60 s).
	QuarantineDuration time.Duration
	// DrainTimeout bounds draining: a node that has not reported drained by
	// then is declared recovered anyway (default 30 s).
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.2
	}
	if c.LatencyFactor <= 1 {
		c.LatencyFactor = 3
	}
	if c.FailureThreshold <= 0 || c.FailureThreshold > 1 {
		c.FailureThreshold = 0.5
	}
	if c.MinObservations <= 0 {
		c.MinObservations = 8
	}
	if c.SuspectStrikes <= 0 {
		c.SuspectStrikes = 3
	}
	if c.QuarantineStrikes <= 0 {
		c.QuarantineStrikes = 3
	}
	if c.ClearStreak <= 0 {
		c.ClearStreak = 16
	}
	if c.QuarantineDuration <= 0 {
		c.QuarantineDuration = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Stats tallies lifecycle transitions over a run.
type Stats struct {
	// Suspects counts healthy/recovered→suspect transitions.
	Suspects int `json:"suspects"`
	// Quarantines counts suspect→quarantined transitions.
	Quarantines int `json:"quarantines"`
	// Drains counts quarantined→draining transitions.
	Drains int `json:"drains"`
	// Recoveries counts draining→recovered transitions.
	Recoveries int `json:"recoveries"`
	// Clears counts suspect/recovered→healthy transitions.
	Clears int `json:"clears"`
}

// Episode is one completed unhealthy window for a node: from the instant it
// left healthy to the instant it returned. Episode durations are the raw
// material for MTTR.
type Episode struct {
	Node  int
	Start time.Duration
	End   time.Duration
}

// Window is a cluster-level interval during which at least one node was
// unhealthy; goodput-during-fault is measured against these.
type Window struct {
	Start time.Duration
	End   time.Duration
}

type nodeHealth struct {
	state    State
	since    time.Duration // when the current state was entered
	latEWMA  float64       // nanoseconds
	failEWMA float64
	obs      int
	strikes  int // consecutive flagged observations
	streak   int // consecutive clean observations
	// episodeStart is when the node last left healthy; valid while unhealthy.
	episodeStart time.Duration
}

// Tracker maintains per-node health state. A nil *Tracker is valid and inert:
// Avoid reports false and the observe methods are no-ops, so callers thread
// it without nil checks. Not safe for concurrent use on its own; the
// simulator and Online both call it under their locks.
type Tracker struct {
	cfg   Config
	nodes []nodeHealth
	// clusterLat is the cluster-wide latency EWMA the per-node signal is
	// compared against.
	clusterLat float64
	clusterObs int
	stats      Stats
	episodes   []Episode
	// windows are closed cluster-level unhealthy intervals; openSince is the
	// start of the currently open one while unhealthyCount > 0.
	windows        []Window
	openSince      time.Duration
	unhealthyCount int
}

// New returns a tracker for n nodes, or nil when the config disables
// tracking.
func New(cfg Config, n int) *Tracker {
	if !cfg.Enabled || n <= 0 {
		return nil
	}
	return &Tracker{cfg: cfg.withDefaults(), nodes: make([]nodeHealth, n)}
}

// setState performs one transition, maintaining tallies, episodes, and
// cluster-level unhealthy windows.
func (t *Tracker) setState(node int, to State, now time.Duration) {
	h := &t.nodes[node]
	from := h.state
	if from == to {
		return
	}
	if from == Healthy {
		h.episodeStart = now
		if t.unhealthyCount == 0 {
			t.openSince = now
		}
		t.unhealthyCount++
	}
	if to == Healthy {
		t.episodes = append(t.episodes, Episode{Node: node, Start: h.episodeStart, End: now})
		t.unhealthyCount--
		if t.unhealthyCount == 0 {
			t.windows = append(t.windows, Window{Start: t.openSince, End: now})
		}
	}
	switch to {
	case Suspect:
		t.stats.Suspects++
	case Quarantined:
		t.stats.Quarantines++
	case Draining:
		t.stats.Drains++
	case Recovered:
		t.stats.Recoveries++
	case Healthy:
		t.stats.Clears++
	}
	h.state = to
	h.since = now
	h.strikes = 0
	h.streak = 0
	if to == Recovered {
		// Quarantine + drain is the recovery action (the node's containers
		// are gone); probation starts from fresh signals and re-detects a
		// still-sick node rather than re-condemning it on stale EWMAs.
		h.failEWMA = 0
		h.latEWMA = 0
		h.obs = 0
	}
}

// advance applies the time-driven transitions (quarantined→draining on the
// quarantine window elapsing, draining→recovered on the drain timeout) up to
// now. Signal-driven transitions happen in the observe methods.
func (t *Tracker) advance(node int, now time.Duration) {
	h := &t.nodes[node]
	if h.state == Quarantined && now-h.since >= t.cfg.QuarantineDuration {
		t.setState(node, Draining, h.since+t.cfg.QuarantineDuration)
	}
	if h.state == Draining && now-h.since >= t.cfg.DrainTimeout {
		t.setState(node, Recovered, h.since+t.cfg.DrainTimeout)
	}
}

// flagged reports whether the node's current signals exceed thresholds.
func (t *Tracker) flagged(h *nodeHealth) bool {
	if h.failEWMA > t.cfg.FailureThreshold {
		return true
	}
	return h.obs >= t.cfg.MinObservations && t.clusterObs >= t.cfg.MinObservations &&
		t.clusterLat > 0 && h.latEWMA > t.cfg.LatencyFactor*t.clusterLat
}

// observe folds one observation (a served request's latency, or a failure)
// into the node's signals and runs the signal-driven transitions.
func (t *Tracker) observe(node int, now time.Duration, latency time.Duration, failed bool) {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return
	}
	t.advance(node, now)
	h := &t.nodes[node]
	a := t.cfg.Alpha
	if failed {
		h.failEWMA = float64((1-a)*h.failEWMA) + a
	} else {
		h.failEWMA = (1 - a) * h.failEWMA
		lat := float64(latency)
		if h.obs == 0 {
			h.latEWMA = lat
		} else {
			h.latEWMA = float64((1-a)*h.latEWMA) + float64(a*lat)
		}
		h.obs++
		if t.clusterObs == 0 {
			t.clusterLat = lat
		} else {
			t.clusterLat = float64((1-a)*t.clusterLat) + float64(a*lat)
		}
		t.clusterObs++
	}
	switch {
	case t.flagged(h):
		h.strikes++
		h.streak = 0
	case failed:
		// A failure below the EWMA threshold is not a strike, but it is
		// never "clean" either: it breaks the streak without striking.
		h.streak = 0
	default:
		h.streak++
		h.strikes = 0
	}
	switch h.state {
	case Healthy, Recovered:
		if h.strikes >= t.cfg.SuspectStrikes {
			t.setState(node, Suspect, now)
		} else if h.state == Recovered && h.streak >= t.cfg.ClearStreak {
			t.setState(node, Healthy, now)
		}
	case Suspect:
		if h.strikes >= t.cfg.QuarantineStrikes {
			t.setState(node, Quarantined, now)
		} else if h.streak >= t.cfg.ClearStreak {
			t.setState(node, Healthy, now)
		}
	}
	// Quarantined/Draining exit on time (or drain), not on signals: a node
	// receiving no new work generates no observations to clear itself with.
}

// ObserveServed folds a successfully served request's latency into the
// node's signals.
func (t *Tracker) ObserveServed(node int, now, latency time.Duration) {
	t.observe(node, now, latency, false)
}

// ObserveFailure folds a hard or gray failure (crash, outage, flaky-donor
// abort, hung transform) into the node's signals.
func (t *Tracker) ObserveFailure(node int, now time.Duration) {
	t.observe(node, now, 0, true)
}

// NoteDrained reports that the node's last in-flight request finished; a
// draining node becomes recovered immediately instead of waiting out the
// drain timeout.
func (t *Tracker) NoteDrained(node int, now time.Duration) {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return
	}
	t.advance(node, now)
	if t.nodes[node].state == Draining {
		t.setState(node, Recovered, now)
	}
}

// Avoid reports whether routing should skip the node at virtual time now:
// quarantined and draining nodes receive no new work. ObserveOnly trackers
// always report false (signals are kept, routing is unchanged).
func (t *Tracker) Avoid(node int, now time.Duration) bool {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return false
	}
	t.advance(node, now)
	if t.cfg.ObserveOnly {
		return false
	}
	st := t.nodes[node].state
	return st == Quarantined || st == Draining
}

// State returns the node's state at virtual time now.
func (t *Tracker) State(node int, now time.Duration) State {
	if t == nil || node < 0 || node >= len(t.nodes) {
		return Healthy
	}
	t.advance(node, now)
	return t.nodes[node].state
}

// Stats returns a snapshot of the transition tallies.
func (t *Tracker) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return t.stats
}

// Episodes returns the completed unhealthy episodes, in completion order.
func (t *Tracker) Episodes() []Episode {
	if t == nil {
		return nil
	}
	return append([]Episode(nil), t.episodes...)
}

// Windows returns the cluster-level unhealthy windows closed so far, plus the
// currently open one truncated at now, if any.
func (t *Tracker) Windows(now time.Duration) []Window {
	if t == nil {
		return nil
	}
	out := append([]Window(nil), t.windows...)
	if t.unhealthyCount > 0 && now > t.openSince {
		out = append(out, Window{Start: t.openSince, End: now})
	}
	return out
}

// MTTR is the mean time-to-recover over completed episodes (zero when none
// completed).
func (t *Tracker) MTTR() time.Duration {
	if t == nil || len(t.episodes) == 0 {
		return 0
	}
	var total time.Duration
	for _, e := range t.episodes {
		total += e.End - e.Start
	}
	return total / time.Duration(len(t.episodes))
}

// Summary is the run-level health digest surfaced in reports and artifacts.
type Summary struct {
	// Episodes is the completed unhealthy-episode count.
	Episodes int `json:"episodes"`
	// MTTRMS is the mean time-to-recover in milliseconds.
	MTTRMS float64 `json:"mttr_ms"`
	Stats
}

// Summarize builds the digest (zero value for a nil tracker).
func (t *Tracker) Summarize() Summary {
	if t == nil {
		return Summary{}
	}
	return Summary{
		Episodes: len(t.episodes),
		MTTRMS:   float64(t.MTTR()) / float64(time.Millisecond),
		Stats:    t.stats,
	}
}

// NodeSnapshot is one node's serializable health state, for checkpointing.
type NodeSnapshot struct {
	Node     int     `json:"node"`
	State    string  `json:"state"`
	SinceNS  int64   `json:"since_ns"`
	LatEWMA  float64 `json:"lat_ewma_ns"`
	FailEWMA float64 `json:"fail_ewma"`
	Obs      int     `json:"observations"`
	Strikes  int     `json:"strikes"`
	Streak   int     `json:"streak"`
	// EpisodeStartNS is the open episode's start; meaningful only while the
	// state is not healthy.
	EpisodeStartNS int64 `json:"episode_start_ns,omitempty"`
}

// Export snapshots every node's health state for a checkpoint.
func (t *Tracker) Export() []NodeSnapshot {
	if t == nil {
		return nil
	}
	out := make([]NodeSnapshot, len(t.nodes))
	for i := range t.nodes {
		h := &t.nodes[i]
		out[i] = NodeSnapshot{
			Node:           i,
			State:          h.state.String(),
			SinceNS:        int64(h.since),
			LatEWMA:        h.latEWMA,
			FailEWMA:       h.failEWMA,
			Obs:            h.obs,
			Strikes:        h.strikes,
			Streak:         h.streak,
			EpisodeStartNS: int64(h.episodeStart),
		}
	}
	return out
}

// Import restores node health from checkpoint snapshots taken at or before
// now. Restore reconciles rather than resets: a quarantined or draining node
// comes back quarantined or draining — never resurrected as healthy — and
// the time-driven exits then run from its restored `since` instant.
// Snapshots for nodes outside the tracker's range are ignored.
func (t *Tracker) Import(snaps []NodeSnapshot, now time.Duration) {
	if t == nil {
		return
	}
	for _, s := range snaps {
		if s.Node < 0 || s.Node >= len(t.nodes) {
			continue
		}
		st := parseState(s.State)
		h := &t.nodes[s.Node]
		wasHealthy := h.state == Healthy
		*h = nodeHealth{
			state:        st,
			since:        time.Duration(s.SinceNS),
			latEWMA:      s.LatEWMA,
			failEWMA:     s.FailEWMA,
			obs:          s.Obs,
			strikes:      s.Strikes,
			streak:       s.Streak,
			episodeStart: time.Duration(s.EpisodeStartNS),
		}
		// Keep the cluster-level unhealthy accounting consistent with the
		// restored states so goodput windows stay well-formed.
		if wasHealthy && st != Healthy {
			if t.unhealthyCount == 0 {
				t.openSince = h.episodeStart
			}
			t.unhealthyCount++
		} else if !wasHealthy && st == Healthy {
			t.unhealthyCount--
			if t.unhealthyCount == 0 {
				t.windows = append(t.windows, Window{Start: t.openSince, End: now})
			}
		}
		// Rebuild the latency baseline from restored nodes; without it a
		// restored sick node could not be re-flagged until the baseline
		// re-warms.
		if s.Obs > 0 {
			if t.clusterObs == 0 {
				t.clusterLat = s.LatEWMA
			}
			t.clusterObs += s.Obs
		}
	}
}

// Transition is one row of the lifecycle's transition table. Transitions is
// the authoritative list DESIGN.md's table is checked against by a guard
// test, so the doc cannot drift from the code.
type Transition struct {
	From    State
	To      State
	Trigger string
}

// Transitions returns the complete transition table.
func Transitions() []Transition {
	return []Transition{
		{Healthy, Suspect, "EWMA failure or latency signal flagged for SuspectStrikes consecutive observations"},
		{Suspect, Quarantined, "signal stays flagged for QuarantineStrikes further observations"},
		{Suspect, Healthy, "ClearStreak consecutive clean observations"},
		{Quarantined, Draining, "QuarantineDuration elapses (virtual time)"},
		{Draining, Recovered, "last in-flight request finishes, or DrainTimeout elapses"},
		{Recovered, Healthy, "ClearStreak consecutive clean observations (probation passed)"},
		{Recovered, Suspect, "signal flags again for SuspectStrikes observations (relapse)"},
	}
}
