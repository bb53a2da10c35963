package supervisor

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestBackoffDisabledIsNil(t *testing.T) {
	b := NewBackoff(BackoffConfig{}, 1)
	if b != nil {
		t.Fatal("zero Base should disable backoff")
	}
	if b.Delay(3) != 0 {
		t.Fatal("nil backoff must return zero delay")
	}
	if b.Stats() != (BackoffStats{}) {
		t.Fatal("nil backoff must report zero stats")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	cfg := BackoffConfig{Base: 100 * time.Millisecond, Cap: 800 * time.Millisecond, Factor: 2, Jitter: 0.25}
	b := NewBackoff(cfg, 42)
	for attempt := 0; attempt < 8; attempt++ {
		d := b.Delay(attempt)
		raw := cfg.Base << attempt
		if raw > cfg.Cap {
			raw = cfg.Cap
		}
		lo := time.Duration(float64(raw) * 0.75)
		hi := time.Duration(float64(raw) * 1.25)
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
	st := b.Stats()
	if st.Delays != 8 || st.TotalDelay <= 0 {
		t.Fatalf("stats = %+v, want 8 delays with positive total", st)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	cfg := BackoffConfig{Base: 50 * time.Millisecond}
	seq := func(seed int64) []time.Duration {
		b := NewBackoff(cfg, seed)
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = b.Delay(i % 4)
		}
		return out
	}
	a, b2 := seq(7), seq(7)
	for i := range a {
		if a[i] != b2[i] {
			t.Fatalf("same seed diverged at delay %d: %v vs %v", i, a[i], b2[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestHedgerArmsAtPercentile(t *testing.T) {
	h := NewHedger(HedgeConfig{Percentile: 90, MinSamples: 5})
	if _, ok := h.Deadline(); ok {
		t.Fatal("hedger must not arm before MinSamples")
	}
	for i := 1; i <= 10; i++ {
		h.Observe(time.Duration(i) * time.Second)
	}
	d, ok := h.Deadline()
	if !ok || d != 9*time.Second {
		t.Fatalf("deadline = %v (armed %v), want 9s armed", d, ok)
	}
	h.RecordHedge(true)
	h.RecordHedge(false)
	if st := h.Stats(); st.Hedged != 2 || st.Wins != 1 {
		t.Fatalf("stats = %+v, want 2 hedged / 1 win", st)
	}
}

func TestHedgerDisabledIsNil(t *testing.T) {
	h := NewHedger(HedgeConfig{})
	if h != nil {
		t.Fatal("zero Percentile should disable hedging")
	}
	h.Observe(time.Second)
	h.RecordHedge(true)
	if _, ok := h.Deadline(); ok {
		t.Fatal("nil hedger must not arm")
	}
}

func TestHedgerWindowRolls(t *testing.T) {
	h := NewHedger(HedgeConfig{Percentile: 100, MinSamples: 2, Window: 4})
	for i := 0; i < 4; i++ {
		h.Observe(time.Hour)
	}
	for i := 0; i < 4; i++ {
		h.Observe(time.Second)
	}
	if d, _ := h.Deadline(); d != time.Second {
		t.Fatalf("old samples should have rolled out; max = %v, want 1s", d)
	}
}

// TestHedgerDeadlineMatchesPercentile is a property test of the hedger's
// incrementally sorted window: over random configurations and random
// interleavings of Observe and Deadline, with many duplicate durations,
// every Deadline equals metrics.DurationPercentile over the last Window
// observations, and arms exactly when MinSamples have been observed.
func TestHedgerDeadlineMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		cfg := HedgeConfig{
			Percentile: []float64{1, 50, 90, 99, 100, 37.5}[rng.Intn(6)],
			MinSamples: 1 + rng.Intn(8),
			Window:     1 + rng.Intn(40),
		}
		h := NewHedger(cfg)
		eff := cfg.withDefaults()
		var seen []time.Duration
		for op := 0; op < 300; op++ {
			if rng.Intn(3) > 0 {
				d := time.Duration(rng.Intn(20)) * time.Millisecond
				h.Observe(d)
				seen = append(seen, d)
				continue
			}
			window := seen[max(0, len(seen)-eff.Window):]
			got, ok := h.Deadline()
			if wantOK := len(window) >= eff.MinSamples; ok != wantOK {
				t.Fatalf("trial %d op %d (%+v): armed %v after %d samples, want %v", trial, op, cfg, ok, len(seen), wantOK)
			}
			if !ok {
				continue
			}
			if want := metrics.DurationPercentile(window, eff.Percentile); got != want {
				t.Fatalf("trial %d op %d (%+v): deadline %v, want %v over %v", trial, op, cfg, got, want, window)
			}
		}
	}
}

// TestBreakerHalfOpenProbeRace is the -race regression test for the breaker's
// half-open probe: when many goroutines hit an expired-cooldown breaker at
// once, exactly one must win the probe slot; the rest short-circuit. Racing
// success/failure recorders must never double-transition the breaker or leak
// it stuck in half-open.
func TestBreakerHalfOpenProbeRace(t *testing.T) {
	const goroutines = 32
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Minute})
	now := time.Duration(0)
	for round := 0; round < 50; round++ {
		b.RecordFailure("src", "dst", now)
		if st := b.State("src", "dst"); st != BreakerOpen {
			t.Fatalf("round %d: state after failure = %v, want open", round, st)
		}
		now += time.Minute // cooldown expires: next Allow admits one probe

		// All contenders race Allow on the expired breaker at once: exactly
		// one may be admitted as the half-open probe.
		var wg sync.WaitGroup
		var mu sync.Mutex
		probes := 0
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if b.Allow("src", "dst", now) {
					mu.Lock()
					probes++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if probes != 1 {
			t.Fatalf("round %d: %d probes admitted, want exactly 1", round, probes)
		}

		// The probe's success races a concurrent failure report (another
		// in-flight transform finishing badly): whatever the interleaving,
		// the breaker must settle out of half-open with exactly one probe
		// outcome recorded — never double-transition, never stuck.
		wg.Add(2)
		go func() {
			defer wg.Done()
			b.RecordSuccess("src", "dst")
		}()
		go func() {
			defer wg.Done()
			b.RecordFailure("src", "dst", now)
		}()
		wg.Wait()
		if st := b.State("src", "dst"); st == BreakerHalfOpen {
			t.Fatalf("round %d: breaker leaked stuck in half-open", round)
		}
		now += time.Second // still inside cooldown: opens stay open
	}
	st := b.Stats()
	if st.Probes != 50 {
		t.Fatalf("probes = %d, want 50", st.Probes)
	}
	if st.Closes+st.Reopens != 50 {
		t.Fatalf("closes %d + reopens %d != probes 50 (a probe outcome was lost or doubled)", st.Closes, st.Reopens)
	}
	if st.ShortCircuits != 50*(goroutines-1) {
		t.Fatalf("short-circuits = %d, want %d", st.ShortCircuits, 50*(goroutines-1))
	}
}
