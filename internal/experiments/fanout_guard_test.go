package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fanout"
)

// checkFanout holds the acceptance gate every fan-out result must pass:
// (a) fan-out's mean latency is below off's, with and without seed crashes,
// (b) under seed crashes fan-out re-parents, still completes N>=16 replicas,
// and holds goodput at or above off's, and (c) the double-run byte-identity
// proof passed.
func checkFanout(t *testing.T, res FanoutResult) {
	t.Helper()
	// (c) determinism proof.
	if !res.Deterministic {
		t.Error("second same-seed fanout-crash run diverged")
	}
	if res.TargetWarm < 16 {
		t.Errorf("target warm %d below the N>=16 gate", res.TargetWarm)
	}
	for _, run := range []FanoutRun{res.Off, res.Fanout, res.FanoutCrash} {
		if run.Arrivals == 0 || run.Served == 0 {
			t.Errorf("%s run served nothing", run.Mode)
		}
		if run.Goodput <= 0 || run.Goodput > 1 {
			t.Errorf("%s goodput out of range: %v", run.Mode, run.Goodput)
		}
	}
	if res.Off.Stats.Any() {
		t.Errorf("off run tallied fan-out activity: %+v", res.Off.Stats)
	}
	// (a) one wave of seed donations absorbs the burst faster than off.
	for _, run := range []FanoutRun{res.Fanout, res.FanoutCrash} {
		if run.MeanMS >= res.Off.MeanMS {
			t.Errorf("%s mean %.1fms not below off's %.1fms", run.Mode, run.MeanMS, res.Off.MeanMS)
		}
		if run.Stats.TreesCompleted != 1 || run.Stats.Recipients < res.TargetWarm {
			t.Errorf("%s did not complete %d replicas: %+v", run.Mode, res.TargetWarm, run.Stats)
		}
	}
	// (b) the crash run: re-parenting fired, fan-out still reached target
	// warmth (checked above), and goodput held at or above off's.
	if res.FanoutCrash.Stats.DonorCrashes == 0 || res.FanoutCrash.Stats.Reparents == 0 {
		t.Errorf("crash run exercised no re-parenting: %+v", res.FanoutCrash.Stats)
	}
	if res.FanoutCrash.Goodput < res.Off.Goodput {
		t.Errorf("crash run goodput %.4f below off's %.4f", res.FanoutCrash.Goodput, res.Off.Goodput)
	}
}

// TestFanoutSmoke runs the burst experiment once and checks the gate.
func TestFanoutSmoke(t *testing.T) {
	checkFanout(t, Fanout(Options{Seed: 1}, fanout.Config{}))
}

// TestFanoutRunsAreByteIdentical replays the whole experiment twice with the
// same seed and requires the marshaled results to match byte for byte — the
// `optimus-bench fanout` determinism contract.
func TestFanoutRunsAreByteIdentical(t *testing.T) {
	a, err := json.Marshal(Fanout(Options{Seed: 7}, fanout.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Fanout(Options{Seed: 7}, fanout.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("two same-seed fanout runs marshaled differently")
	}
}

// TestFanoutArtifactGuard validates the checked-in BENCH_fanout.json against
// the same gate.
func TestFanoutArtifactGuard(t *testing.T) {
	path := filepath.Join("..", "..", BenchFanoutFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing artifact %s (run `make bench-fanout`): %v", BenchFanoutFile, err)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	for _, k := range []string{"seed", "target_warm", "crash_rates", "off", "fanout", "fanout_crash", "deterministic"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("artifact missing key %q", k)
		}
	}
	var res FanoutResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	checkFanout(t, res)
}
