package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the output must match.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// results parses the JSON result line each workload prints, in order.
func results(t *testing.T, out []byte) []output {
	t.Helper()
	var rs []output
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := sc.Bytes(); bytes.HasPrefix(line, []byte("{")) {
			var r output
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("result line %s: %v", line, err)
			}
			rs = append(rs, r)
		}
	}
	return rs
}

func units(ms map[string]metricValue) map[string]string {
	out := map[string]string{}
	for name, m := range ms {
		out[name] = m.Unit
	}
	return out
}

// TestBenchmarkQuick runs every workload briefly, untraced and traced, and
// requires every check to pass and the metrics printed to be exactly those
// BENCHMARK.json declares.
func TestBenchmarkQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec declared
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloadNames())
	}
	e2e, layer := map[string]string{}, map[string]string{}
	declaredE2E, ownE2E := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
		declaredE2E[m.Name] = fmt.Sprint(m.Unit, m.Better, m.Bound)
	}
	for _, m := range endToEndMetrics {
		ownE2E[m.name] = fmt.Sprint(m.unit, m.better, m.bound)
	}
	if !reflect.DeepEqual(declaredE2E, ownE2E) {
		t.Errorf("end-to-end metrics: BENCHMARK.json declares %v, spec.go %v", declaredE2E, ownE2E)
	}
	declaredLayer, ownLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
		declaredLayer[m.Name] = m.Unit + " " + m.Better
	}
	for _, m := range layerMetrics {
		ownLayer[m.name] = m.unit + " " + m.better
	}
	if !reflect.DeepEqual(declaredLayer, ownLayer) {
		t.Errorf("per-layer metrics: BENCHMARK.json declares %v, spec.go %v", declaredLayer, ownLayer)
	}

	for _, pass := range []struct {
		name string
		args []string
		want map[string]string
	}{
		{"untraced", []string{"-quick", "-seconds", "1.5"}, e2e},
		{"traced", []string{"-quick", "-seconds", "1", "-trace", t.TempDir()}, layer},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-seed", "3"}, pass.args...), &out); err != nil {
			t.Fatalf("%s: %v\n%s", pass.name, err, out.String())
		}
		rs := results(t, out.Bytes())
		if len(rs) != len(names) {
			t.Fatalf("%s: %d result lines for %d workloads\n%s", pass.name, len(rs), len(names), out.String())
		}
		for i, r := range rs {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s %s: correct %v, attempted %d, failed %d", pass.name, names[i], r.Correct, r.Attempted, r.Failed)
			}
			if got := units(r.Metrics); !reflect.DeepEqual(got, pass.want) {
				t.Errorf("%s %s: metrics %v, BENCHMARK.json declares %v", pass.name, names[i], got, pass.want)
			}
		}
		if t.Failed() {
			t.Logf("%s output:\n%s", pass.name, strings.TrimSpace(out.String()))
		}
	}
}
