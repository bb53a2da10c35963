package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// traceDigest folds the trace's duration and every request, in order, into
// one FNV-1a hash.
func traceDigest(tr *Trace) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(tr.Duration))
	h.Write(b[:])
	for _, r := range tr.Requests {
		h.Write([]byte(r.Function))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(b[:], uint64(r.At))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestTraceDigest pins every generator family's trace, request for request,
// at seeds 1..8: 40 functions over 48 h, with per-function rates for
// PoissonRates. A change to any draw, any tie-break or the merge order
// moves a digest.
func TestTraceDigest(t *testing.T) {
	fns := fnNames(40)
	const horizon = 48 * time.Hour
	rates := map[string]float64{}
	for i, f := range fns {
		rates[f] = RateFrequent * float64(1+i%7)
	}
	families := []struct {
		name string
		gen  func(seed int64) *Trace
		want [8]uint64
	}{
		{"poisson", func(s int64) *Trace { return Poisson(fns, RateFrequent, horizon, s) },
			[8]uint64{
				0x70a323a9b31e8062, 0xc9d8d30f87413ae8, 0xbc5076f1582104f5, 0x41d5410df795a38,
				0x6b1eaff0e9468899, 0x5eb3bc746a61ec47, 0x3226d11c796970ed, 0x283b9487b4a4ec88,
			}},
		{"poisson-rates", func(s int64) *Trace { return PoissonRates(rates, horizon, s) },
			[8]uint64{
				0x6303a2a5a394e67, 0x44fbbc7730e8514b, 0x1cacf67278e9379d, 0x4de4d56a802d1f3e,
				0xd244a84903e3b5a, 0x4549b662d6e25bb6, 0xa0546f4eaa7d8b6b, 0x48fd7c4a412d722d,
			}},
		{"mixed", func(s int64) *Trace { return MixedPoisson(fns, horizon, s) },
			[8]uint64{
				0xb5fec14465a6697b, 0xf57508391d971c0c, 0xcfa1794f34e8a416, 0x91bbe16bdd08cdd6,
				0x255f8c4657451c8, 0xc28ae94976d487c, 0x734f9df7b4739194, 0xe4f4741d0fac3969,
			}},
		{"azure", func(s int64) *Trace { return AzureLike(fns, horizon, s) },
			[8]uint64{
				0xfacafc6e6b2ff6fd, 0x853307aa31c896f0, 0x47e1f4d40f0fce1, 0xd019b34e077763ec,
				0xaddb2e00f7720bd5, 0xbbace7803c05abf2, 0xd1dca674fcc7388e, 0xf96d78a098a82686,
			}},
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", fam.name, seed), func(t *testing.T) {
				tr := fam.gen(seed)
				if tr.Len() == 0 {
					t.Fatal("empty trace: vacuous digest")
				}
				if got, want := traceDigest(tr), fam.want[seed-1]; got != want {
					t.Errorf("digest %#x (len %d), want %#x", got, tr.Len(), want)
				}
			})
		}
	}
}
