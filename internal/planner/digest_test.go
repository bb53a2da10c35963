package planner

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/metaop"
	"repro/internal/model"
	"repro/internal/zoo"
)

// digestZoo returns the plan-digest inputs: the BERT zoo followed by the
// first 40 Imgclsmob models, in catalog order.
func digestZoo() []*model.Graph {
	var out []*model.Graph
	bert := zoo.BERTZoo()
	for _, n := range bert.Names() {
		out = append(out, bert.MustGet(n))
	}
	img := zoo.Imgclsmob()
	for _, n := range img.Names()[:40] {
		out = append(out, img.MustGet(n))
	}
	return out
}

// planDigest folds every field of every plan, in planning order, into one
// hash: names, structure hashes, each step's fields (the destination
// operation included), the cost estimates, the safeguard decision, and
// whether Steps is nil or merely empty.
type planDigest struct {
	h   hash.Hash64
	buf [8]byte
}

func newPlanDigest() *planDigest { return &planDigest{h: fnv.New64a()} }

func (d *planDigest) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *planDigest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *planDigest) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *planDigest) plan(p *metaop.Plan) {
	d.str(p.SrcName)
	d.str(p.DstName)
	d.int(int64(p.SrcHash))
	d.int(int64(p.DstHash))
	d.bool(p.Steps == nil)
	d.int(int64(len(p.Steps)))
	for i := range p.Steps {
		s := &p.Steps[i]
		d.int(int64(s.Kind))
		d.int(int64(s.SrcID))
		d.int(int64(s.DstID))
		d.int(int64(s.Dst.ID))
		d.str(s.Dst.Name)
		d.int(int64(s.Dst.Type))
		d.int(int64(s.Dst.Shape.KernelH))
		d.int(int64(s.Dst.Shape.KernelW))
		d.int(int64(s.Dst.Shape.InChannels))
		d.int(int64(s.Dst.Shape.OutChannels))
		d.int(int64(s.Dst.Shape.Stride))
		d.int(int64(s.Dst.WeightsID))
		d.int(int64(s.EdgeFrom))
		d.int(int64(s.EdgeTo))
		d.bool(s.EdgeAdd)
		d.int(int64(s.EstCost))
	}
	d.int(int64(p.EstCost))
	d.int(int64(p.ScratchCost))
	d.bool(p.LoadFromScratch)
}

func (d *planDigest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// digestAll plans every ordered pair of models (self pairs included) with
// one planner and returns the digest of the plans in order.
func digestAll(pl *Planner, models []*model.Graph) string {
	d := newPlanDigest()
	for _, src := range models {
		for _, dst := range models {
			d.plan(pl.Plan(src, dst))
		}
	}
	return d.sum()
}

// TestPlanDigest pins the exact plans the planner produces on real zoo
// pairs. Any change to planning that alters a single field of a single plan
// (a step's order, a cost, nil versus empty Steps) changes a digest; an
// optimisation of the planner must leave all of them untouched.
func TestPlanDigest(t *testing.T) {
	models := digestZoo()
	prof := cost.CPU()

	// The Hungarian solver is cubic in the op count, so it runs on the 12
	// smallest models of the set.
	small := append([]*model.Graph(nil), models...)
	sort.SliceStable(small, func(i, j int) bool { return small[i].NumOps() < small[j].NumOps() })
	small = small[:12]

	cases := []struct {
		name   string
		pl     *Planner
		models []*model.Graph
		want   string
	}{
		{"group/err0", New(cost.NewEstimator(prof, 0, 1), AlgoGroup), models, "ccedb55dc31efca3"},
		{"group/err0.3", New(cost.NewEstimator(prof, 0.3, 1), AlgoGroup), models, "4c1086ff81998385"},
		{"hungarian/err0", New(cost.NewEstimator(prof, 0, 1), AlgoHungarian), small, "4bd1b1879e0cc9f2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := digestAll(tc.pl, tc.models); got != tc.want {
				t.Errorf("plan digest over %d models = %s, want %s", len(tc.models), got, tc.want)
			}
		})
	}
}

// TestCostMatchesPlan checks the step-free cost pass against the full plan
// on every ordered pair of the plan-digest corpus: Cost must report the
// plan's estimate, scratch cost and safeguard decision, and the plan's true
// cost under the planner's profile.
func TestCostMatchesPlan(t *testing.T) {
	models := digestZoo()
	prof := cost.CPU()
	small := append([]*model.Graph(nil), models...)
	sort.SliceStable(small, func(i, j int) bool { return small[i].NumOps() < small[j].NumOps() })
	small = small[:12]

	cases := []struct {
		name   string
		algo   Algorithm
		relErr float64
		models []*model.Graph
	}{
		{"group/err0", AlgoGroup, 0, models},
		{"group/err0.3", AlgoGroup, 0.3, models},
		{"hungarian/err0", AlgoHungarian, 0, small},
		{"hungarian/err0.3", AlgoHungarian, 0.3, small},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := New(cost.NewEstimator(prof, tc.relErr, 1), tc.algo)
			for _, src := range tc.models {
				for _, dst := range tc.models {
					p := pl.Plan(src, dst)
					want := Cost{Est: p.EstCost, Scratch: p.ScratchCost, LoadFromScratch: p.LoadFromScratch,
						True: p.TrueCost(prof, src)}
					if got := pl.Cost(src, dst); got != want {
						t.Fatalf("%s→%s: Cost = %+v, plan gives %+v", src.Name, dst.Name, got, want)
					}
				}
			}
		})
	}
}

// TestKeyOrderIndependence indexes the plan-digest corpus into one planner
// in catalog order and into another in reverse order, so the two intern the
// match keys under different IDs. The group matcher pairs ops only within
// equal keys, so both must produce the same plans.
func TestKeyOrderIndependence(t *testing.T) {
	models := digestZoo()
	for _, relErr := range []float64{0, 0.3} {
		t.Run(fmt.Sprintf("group/err%g", relErr), func(t *testing.T) {
			fwd := New(cost.NewEstimator(cost.CPU(), relErr, 1), AlgoGroup)
			rev := New(cost.NewEstimator(cost.CPU(), relErr, 1), AlgoGroup)
			for i := range models {
				fwd.index(models[i])
				rev.index(models[len(models)-1-i])
			}
			if len(fwd.keys) != len(rev.keys) {
				t.Fatalf("forward interned %d keys, reverse %d", len(fwd.keys), len(rev.keys))
			}
			same := 0
			for k, id := range fwd.keys {
				if rev.keys[k] == id {
					same++
				}
			}
			if same > len(fwd.keys)/10 {
				t.Fatalf("%d of %d keys have the same ID in both orders; the test proves little", same, len(fwd.keys))
			}
			if a, b := digestAll(fwd, models), digestAll(rev, models); a != b {
				t.Errorf("plan digest %s in catalog key order, %s in reverse key order", a, b)
			}
		})
	}
}
