package supervisor

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
)

// BackoffConfig parameterizes the deterministic retry backoff that replaces
// immediate bounded retries.
type BackoffConfig struct {
	// Base is the first retry's delay. Zero or negative disables backoff
	// (NewBackoff returns nil) and retries re-dispatch immediately, exactly
	// as before.
	Base time.Duration
	// Cap bounds any single delay (default 16× Base).
	Cap time.Duration
	// Factor is the exponential growth per attempt (default 2).
	Factor float64
	// Jitter is the ± fraction of seeded jitter applied to each delay
	// (default 0.5, clamped to [0, 1]). Jitter draws from the backoff's own
	// seeded PRNG, never the global one, so replays are exact.
	Jitter float64
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Cap <= 0 {
		c.Cap = 16 * c.Base
	}
	if c.Factor < 1 {
		c.Factor = 2
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.Jitter == 0 {
		c.Jitter = 0.5
	}
	if c.Jitter > 1 {
		c.Jitter = 1
	}
	return c
}

// BackoffStats tallies backoff activity over a run.
type BackoffStats struct {
	// Delays counts retry delays handed out.
	Delays int
	// TotalDelay is the summed virtual-time delay.
	TotalDelay time.Duration
}

// Backoff computes seeded exponential retry delays in virtual time. A nil
// *Backoff is valid: Delay always returns 0, preserving the immediate-retry
// behavior. Safe for concurrent use.
type Backoff struct {
	mu    sync.Mutex
	cfg   BackoffConfig
	rng   *rand.Rand
	stats BackoffStats
}

// NewBackoff returns a backoff for the config, or nil when Base is unset
// (backoff disabled, retries stay immediate).
func NewBackoff(cfg BackoffConfig, seed int64) *Backoff {
	if cfg.Base <= 0 {
		return nil
	}
	return &Backoff{cfg: cfg.withDefaults(), rng: rand.New(rand.NewSource(seed))}
}

// Delay returns the virtual-time delay before retry number attempt (0-based):
// min(Cap, Base·Factor^attempt), spread by ±Jitter from the seeded PRNG.
func (b *Backoff) Delay(attempt int) time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	d := float64(b.cfg.Base) * math.Pow(b.cfg.Factor, float64(attempt))
	if capf := float64(b.cfg.Cap); d > capf {
		d = capf
	}
	d *= 1 + float64(b.cfg.Jitter*(2*float64(b.rng.Float64())-1))
	if d < 0 {
		d = 0
	}
	out := time.Duration(d)
	b.stats.Delays++
	b.stats.TotalDelay += out
	return out
}

// Stats returns a snapshot of the backoff tallies.
func (b *Backoff) Stats() BackoffStats {
	if b == nil {
		return BackoffStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// HedgeConfig parameterizes hedged transform starts.
type HedgeConfig struct {
	// Percentile of observed transform durations that arms the hedge
	// deadline (e.g. 95 hedges transforms outliving the p95). Zero or
	// negative disables hedging (NewHedger returns nil).
	Percentile float64
	// MinSamples is how many observed transforms the hedger needs before it
	// arms (default 10).
	MinSamples int
	// Window bounds the rolling duration sample (default 512).
	Window int
}

func (c HedgeConfig) withDefaults() HedgeConfig {
	if c.Percentile > 100 {
		c.Percentile = 100
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.Window <= 0 {
		c.Window = 512
	}
	if c.Window < c.MinSamples {
		c.Window = c.MinSamples
	}
	return c
}

// HedgeStats tallies hedged transform starts over a run.
type HedgeStats struct {
	// Hedged counts transforms for which a backup start was launched at the
	// deadline.
	Hedged int
	// Wins counts hedged backups that finished before the primary's own
	// recovery path would have (the primary was cancelled as the loser).
	Wins int
}

// Hedger tracks a rolling sample of successful transform durations and arms
// a percentile deadline: a transform still running at the deadline gets a
// backup started from the next-best donor, and the loser is cancelled. A nil
// *Hedger is valid and inert. Safe for concurrent use.
type Hedger struct {
	mu      sync.Mutex
	cfg     HedgeConfig
	samples []time.Duration // rolling window, insertion order
	// sorted holds the window's samples in ascending order, kept in step
	// with samples so Deadline reads its percentile without sorting.
	sorted []time.Duration
	next   int
	stats  HedgeStats
}

// NewHedger returns a hedger for the config, or nil when Percentile is unset
// (hedging disabled).
func NewHedger(cfg HedgeConfig) *Hedger {
	if cfg.Percentile <= 0 {
		return nil
	}
	return &Hedger{cfg: cfg.withDefaults()}
}

// Observe folds one successful transform duration into the rolling sample.
func (h *Hedger) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) < h.cfg.Window {
		h.samples = append(h.samples, d)
	} else {
		// The window is full: d replaces the oldest sample, in both views.
		old, _ := slices.BinarySearch(h.sorted, h.samples[h.next])
		h.sorted = slices.Delete(h.sorted, old, old+1)
		h.samples[h.next] = d
		h.next++
		if h.next == h.cfg.Window {
			h.next = 0
		}
	}
	at, _ := slices.BinarySearch(h.sorted, d)
	h.sorted = slices.Insert(h.sorted, at, d)
}

// Deadline returns the armed hedge deadline — the configured percentile of
// the rolling sample — and whether the hedger has enough samples to arm.
func (h *Hedger) Deadline() (time.Duration, bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) < h.cfg.MinSamples {
		return 0, false
	}
	return metrics.PercentileSorted(h.sorted, h.cfg.Percentile), true
}

// RecordHedge tallies one hedged start and whether the backup won.
func (h *Hedger) RecordHedge(win bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.stats.Hedged++
	if win {
		h.stats.Wins++
	}
	h.mu.Unlock()
}

// Stats returns a snapshot of the hedge tallies.
func (h *Hedger) Stats() HedgeStats {
	if h == nil {
		return HedgeStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}
