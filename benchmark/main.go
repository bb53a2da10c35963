// Command benchmark is the repository benchmark: four workloads that drive
// the program through its public entry points — trace replay through
// simulate.Simulator.Run, and HTTP serving through gateway.New(...).Handler()
// and controlplane.NewProxy on loopback listeners — and print every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The run exits
// non-zero when a correctness check fails.
//
//	bash benchmark/run.sh --workload serve-steady --seed 7 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runConfig is one workload run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	quick    bool
	// traceDir receives spans and profiles; rec is non-nil in a traced run.
	traceDir string
	rec      *recorder
}

// setups is how many times set-up runs; setup_s is their median.
func (rc *runConfig) setups() int {
	if rc.quick || rc.rec != nil {
		return 1
	}
	return 3
}

// budget is the measured time of the run.
func (rc *runConfig) budget() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

func (rc *runConfig) tracePath(name string) string {
	return filepath.Join(rc.traceDir, rc.workload+"."+name)
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	failures          []string
	notes             []string
	e2e, layer        map[string]float64
	setupRuns         []float64
	setupParts        map[string][]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, setupParts: map[string][]float64{}}
}

// fail records a failed correctness check; the run is then not correct.
// Only the first few failures of each check are kept verbatim.
func (r *result) fail(check, detail string) {
	n := 0
	for _, f := range r.failures {
		if strings.HasPrefix(f, check+": ") {
			n++
		}
	}
	if n < 5 {
		r.failures = append(r.failures, check+": "+detail)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setup records one set-up's duration and the named parts of it.
func (r *result) setup(d time.Duration, parts map[string]time.Duration) {
	r.setupRuns = append(r.setupRuns, d.Seconds())
	for k, v := range parts {
		r.setupParts[k] = append(r.setupParts[k], v.Seconds())
	}
}

func (r *result) finish() {
	r.e2e["setup_s"] = median(r.setupRuns)
	for k, v := range r.setupParts {
		r.layer[k] = median(v)
	}
}

func (r *result) correct() bool { return len(r.failures) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run: notes, failed checks and every metric of the kind
// the run measures, then the JSON result line.
func report(w io.Writer, rc *runConfig, r *result) error {
	type named struct{ name, unit string }
	var list []named
	values := r.layer
	if rc.rec == nil {
		values = r.e2e
		for _, m := range endToEndMetrics {
			list = append(list, named{m.name, m.unit})
		}
	} else {
		for _, m := range layerMetrics {
			list = append(list, named{m.name, m.unit})
		}
	}
	out := output{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok && rc.rec == nil {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", rc.workload, m.name)
		}
		out.Metrics[m.name] = metricValue{v, m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	for _, m := range list {
		fmt.Fprintf(w, "%-14s %-36s %14.6g %s\n", rc.workload, m.name, out.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "%-14s attempted %d, failed %d, correct %v\n", rc.workload, r.attempted, r.failed, out.Correct)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// environment describes the machine and build a run measured.
func environment(seed int64) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	if modified == "true" {
		commit += "+modified"
	}
	return map[string]any{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"seed":       seed,
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// runWorkload runs one workload and completes its result.
func runWorkload(rc *runConfig) (*result, error) {
	for _, w := range workloads {
		if w.name != rc.workload {
			continue
		}
		if rc.traceDir != "" {
			rc.rec = newRecorder(1 << 19)
		}
		res, err := w.run(rc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rc.workload, err)
		}
		res.finish()
		if rc.rec != nil {
			if n := rc.rec.dropped; n > 0 {
				res.note("%d spans past the recorder's capacity were dropped", n)
			}
			if err := writeJSONLFile(rc.tracePath("spans.jsonl"), rc.rec.snapshot()); err != nil {
				res.note("spans: %v", err)
			}
		}
		return res, nil
	}
	return nil, fmt.Errorf("unknown workload %q", rc.workload)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload")
	quick := fs.Bool("quick", false, "small inputs and one set-up, for tests")
	trace := fs.String("trace", "0", "0: untraced, end-to-end metrics; 1: traced, per-layer metrics, spans in .bench_build/trace; any other value: traced, spans in that directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	traceDir := ""
	switch *trace {
	case "0", "":
	case "1":
		traceDir = filepath.Join(".bench_build", "trace")
	default:
		traceDir = *trace
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	env, err := json.Marshal(environment(*seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# env %s\n", env)
	incorrect := false
	for _, name := range names {
		rc := &runConfig{workload: name, seed: *seed, seconds: *seconds, quick: *quick, traceDir: traceDir}
		res, err := runWorkload(rc)
		if err != nil {
			return err
		}
		if err := report(stdout, rc, res); err != nil {
			return err
		}
		incorrect = incorrect || !res.correct()
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}
