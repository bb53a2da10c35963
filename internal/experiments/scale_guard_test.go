package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestScaleSmoke runs the scale benchmark at a tiny request count and checks
// the invariants that must hold at any scale: the indexed replay's records
// equal the scanning baseline's, and the indexed engine allocates less per
// request than the scanning baseline.
func TestScaleSmoke(t *testing.T) {
	res := Scale(Options{Quick: true, Seed: 5}, 4000, 4)
	if res.Requests == 0 {
		t.Fatal("empty trace")
	}
	if !res.IndexedMatchesScan {
		t.Error("indexed replay diverged from the scanning baseline")
	}
	if res.IndexedAllocsPerReq >= res.SerialAllocsPerReq {
		t.Errorf("indexed allocs/req %.1f not below scan baseline %.1f",
			res.IndexedAllocsPerReq, res.SerialAllocsPerReq)
	}
}

// TestScaleArtifactGuard validates the checked-in BENCH_sim_scale.json: the
// required keys are present, the equality proof passed when it was
// generated, and the indexed engine was not slower than the scan baseline.
func TestScaleArtifactGuard(t *testing.T) {
	path := filepath.Join("..", "..", BenchScaleFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing artifact %s (run `make bench-scale`): %v", BenchScaleFile, err)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	for _, k := range []string{
		"requests", "gomaxprocs", "num_cpu", "serial_ms", "indexed_ms", "speedup_indexed",
		"serial_allocs_per_req", "indexed_allocs_per_req", "indexed_matches_scan",
	} {
		if _, ok := keys[k]; !ok {
			t.Errorf("artifact missing key %q", k)
		}
	}
	var res ScaleBench
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.IndexedMatchesScan {
		t.Error("artifact records an indexed/scan divergence")
	}
	if res.SpeedupIndexed < 1.0 {
		t.Errorf("indexed replay slower than the scan baseline: %.2fx", res.SpeedupIndexed)
	}
	if res.Requests < 500_000 {
		t.Errorf("artifact generated from only %d requests; want >= 500000", res.Requests)
	}
}
