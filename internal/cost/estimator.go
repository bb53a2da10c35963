package cost

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// Estimator is the output of Module 1 (offline profiling for meta-operators,
// §4.4): the cost table the planner consults when choosing a transformation
// strategy. In the paper the table is measured on the live system; in this
// reproduction the Profile is ground truth and the Estimator optionally
// perturbs it with deterministic multiplicative noise to model measurement
// error, so the planner plans against *estimates* while the simulator charges
// *true* costs — exactly the situation the paper's safeguard defends against.
//
// The estimator publishes its per-op-type factors as an immutable Snapshot.
// Reads load the current snapshot without a lock; online profiling publishes
// a new one per observation, so a snapshot taken once prices every step of a
// plan under one consistent table.
type Estimator struct {
	p   *Profile
	cur atomic.Pointer[Snapshot]

	// mu serializes writers: online-profiling updates and their settings.
	mu sync.Mutex
	// alpha is the EWMA learning rate of online profiling (§6): zero
	// disables learning, making the estimator static.
	alpha float64
	// observations counts Observe calls that updated a factor.
	observations int
}

// Snapshot is one published state of an Estimator: the ground-truth profile
// and a multiplicative estimate factor per operation type. It is immutable.
type Snapshot struct {
	p *Profile
	// factor is indexed by model.OpType; every valid type has an entry, and
	// OpInvalid keeps factor 1.
	factor []float64
}

// NewEstimator profiles the given hardware. relErr is the relative
// measurement error (e.g. 0.1 for ±10 %); zero yields exact estimates.
// The noise per op type is drawn deterministically from seed.
func NewEstimator(p *Profile, relErr float64, seed int64) *Estimator {
	types := model.AllOpTypes()
	s := &Snapshot{p: p, factor: make([]float64, int(types[len(types)-1])+1)}
	s.factor[model.OpInvalid] = 1
	rng := rand.New(rand.NewSource(seed))
	for _, t := range types {
		f := 1.0
		if relErr > 0 {
			f = 1 + float64(relErr*(2*float64(rng.Float64())-1))
		}
		s.factor[t] = f
	}
	e := &Estimator{p: p}
	e.cur.Store(s)
	return e
}

// Exact returns an estimator with zero measurement error.
func Exact(p *Profile) *Estimator { return NewEstimator(p, 0, 0) }

// Profile returns the underlying (true) hardware profile.
func (e *Estimator) Profile() *Profile { return e.p }

// Snapshot returns the estimator's current published state.
func (e *Estimator) Snapshot() *Snapshot { return e.cur.Load() }

// EnableOnlineProfiling turns on online profile refinement (§6 Future Work):
// every Observe call nudges the per-op-type estimate toward the observed
// execution time with EWMA rate alpha (typical 0.2). The paper's prototype
// profiles offline only; transformation plans generated from outdated
// profiles can be inefficient, which online profiling corrects.
func (e *Estimator) EnableOnlineProfiling(alpha float64) {
	e.mu.Lock()
	e.alpha = alpha
	e.mu.Unlock()
}

// Observe feeds one measured meta-operator execution back into the profile:
// the operation type's scale factor moves toward making `predicted` equal
// `actual`, and the estimator publishes the updated table as a new
// snapshot. No-op unless online profiling is enabled.
func (e *Estimator) Observe(t model.OpType, predicted, actual time.Duration) {
	if predicted <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.cur.Load()
	if e.alpha <= 0 || int(t) >= len(old.factor) {
		return
	}
	next := &Snapshot{p: old.p, factor: append([]float64(nil), old.factor...)}
	ratio := float64(actual) / float64(predicted)
	next.factor[t] = old.factor[t] * (1 - e.alpha + float64(e.alpha*ratio))
	e.cur.Store(next)
	e.observations++
}

// Observations returns how many measurements online profiling has absorbed.
func (e *Estimator) Observations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.observations
}

// Miscalibration returns the mean absolute relative error of the estimator's
// per-op-type factors versus the true profile (0 = perfectly calibrated).
func (e *Estimator) Miscalibration() float64 { return e.Snapshot().Miscalibration() }

// SubstituteCost estimates transforming src into dst via Reshape/Replace.
func (e *Estimator) SubstituteCost(src, dst *model.Operation) (time.Duration, bool) {
	return e.Snapshot().SubstituteCost(src, dst)
}

// ReplaceCost estimates overwriting dst's weights in place.
func (e *Estimator) ReplaceCost(dst *model.Operation) time.Duration {
	return e.Snapshot().ReplaceCost(dst)
}

// ReshapeCost estimates resizing src's properties to dst's.
func (e *Estimator) ReshapeCost(src, dst *model.Operation) time.Duration {
	return e.Snapshot().ReshapeCost(src, dst)
}

// ReduceCost estimates deleting src.
func (e *Estimator) ReduceCost(src *model.Operation) time.Duration {
	return e.Snapshot().ReduceCost(src)
}

// AddCost estimates creating dst from scratch in-container.
func (e *Estimator) AddCost(dst *model.Operation) time.Duration {
	return e.Snapshot().AddCost(dst)
}

// EdgeCost estimates n edge rewirings.
func (e *Estimator) EdgeCost(n int) time.Duration { return e.p.EdgeCost(n) }

// ModelLoad estimates loading g from scratch (used by the safeguard).
func (e *Estimator) ModelLoad(g *model.Graph) time.Duration {
	return e.p.ModelLoad(g).Total()
}

// Profile returns the snapshot's ground-truth profile.
func (s *Snapshot) Profile() *Profile { return s.p }

// Scale turns the true cost d of a meta-operator acting on an operation of
// type t into the snapshot's estimate of it.
func (s *Snapshot) Scale(t model.OpType, d time.Duration) time.Duration {
	if int(t) >= len(s.factor) {
		return d
	}
	return time.Duration(float64(d) * s.factor[t])
}

// Miscalibration returns the mean absolute relative error of the snapshot's
// factors over model.AllOpTypes, summed in op-type order so repeated calls
// agree to the bit.
func (s *Snapshot) Miscalibration() float64 {
	valid := s.factor[model.OpInvalid+1:]
	var sum float64
	for _, f := range valid {
		d := f - 1
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(valid))
}

// SubstituteCost estimates transforming src into dst via Reshape/Replace.
func (s *Snapshot) SubstituteCost(src, dst *model.Operation) (time.Duration, bool) {
	c, ok := s.p.SubstituteCost(src, dst)
	if !ok {
		return 0, false
	}
	return s.Scale(dst.Type, c), true
}

// ReplaceCost estimates overwriting dst's weights in place.
func (s *Snapshot) ReplaceCost(dst *model.Operation) time.Duration {
	return s.Scale(dst.Type, s.p.ReplaceCost(dst))
}

// ReshapeCost estimates resizing src's properties to dst's.
func (s *Snapshot) ReshapeCost(src, dst *model.Operation) time.Duration {
	return s.Scale(dst.Type, s.p.ReshapeCost(src, dst))
}

// ReduceCost estimates deleting src.
func (s *Snapshot) ReduceCost(src *model.Operation) time.Duration {
	return s.Scale(src.Type, s.p.ReduceCost(src))
}

// AddCost estimates creating dst from scratch in-container.
func (s *Snapshot) AddCost(dst *model.Operation) time.Duration {
	return s.Scale(dst.Type, s.p.AddCost(dst))
}
